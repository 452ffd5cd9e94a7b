package boolfn

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCubeContains(t *testing.T) {
	// Cube over 3 vars: v0 && !v2  -> Care = 101b, Val = 001b.
	c := Cube{Care: 0b101, Val: 0b001}
	cases := []struct {
		letter uint32
		want   bool
	}{
		{0b000, false},
		{0b001, true},
		{0b011, true},
		{0b101, false},
		{0b111, false},
		{0b010, false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.letter); got != tc.want {
			t.Errorf("Contains(%03b) = %v, want %v", tc.letter, got, tc.want)
		}
	}
}

func TestTrueCube(t *testing.T) {
	for l := uint32(0); l < 8; l++ {
		if !True.Contains(l) {
			t.Fatalf("True cube rejects %b", l)
		}
	}
	if True.String() != "true" {
		t.Errorf("True.String() = %q", True.String())
	}
	if True.NumLiterals() != 0 {
		t.Errorf("True has %d literals", True.NumLiterals())
	}
}

func TestLiteralsAndFormat(t *testing.T) {
	c := Cube{Care: 0b110, Val: 0b010}
	ls := c.Literals()
	want := []Literal{{Var: 1, Positive: true}, {Var: 2, Positive: false}}
	if !reflect.DeepEqual(ls, want) {
		t.Fatalf("Literals = %v, want %v", ls, want)
	}
	got := c.Format([]string{"a", "b", "c"})
	if got != "b && !c" {
		t.Errorf("Format = %q, want %q", got, "b && !c")
	}
	if s := c.String(); s != "v1 && !v2" {
		t.Errorf("String = %q", s)
	}
}

func TestMinimizeEdgeCases(t *testing.T) {
	if d := Minimize(nil, 3); len(d) != 0 {
		t.Errorf("Minimize(empty) = %v, want false", d)
	}
	// Full space -> true.
	var all []uint32
	for m := uint32(0); m < 8; m++ {
		all = append(all, m)
	}
	d := Minimize(all, 3)
	if len(d) != 1 || d[0] != True {
		t.Errorf("Minimize(full) = %v, want [true]", d)
	}
	// Zero variables, onset = {0} -> true.
	d = Minimize([]uint32{0}, 0)
	if len(d) != 1 || d[0] != True {
		t.Errorf("Minimize({0},0) = %v, want [true]", d)
	}
	// Single minterm is its own cube.
	d = Minimize([]uint32{0b101}, 3)
	if len(d) != 1 || d[0].Care != 0b111 || d[0].Val != 0b101 {
		t.Errorf("Minimize single = %v", d)
	}
	// Duplicates tolerated.
	d = Minimize([]uint32{1, 1, 1}, 1)
	if len(d) != 1 || d[0].Care != 1 || d[0].Val != 1 {
		t.Errorf("Minimize dup = %v", d)
	}
}

func TestMinimizeClassic(t *testing.T) {
	// f(a,b,c) = a (minterms with bit0 set).
	d := Minimize([]uint32{0b001, 0b011, 0b101, 0b111}, 3)
	if len(d) != 1 || d[0].Care != 0b001 || d[0].Val != 0b001 {
		t.Errorf("Minimize(a) = %v", d)
	}
	// XOR needs two cubes; no merging possible.
	d = Minimize([]uint32{0b01, 0b10}, 2)
	if len(d) != 2 {
		t.Errorf("Minimize(xor) = %v, want 2 cubes", d)
	}
	// Textbook QM example: minterms 0,1,2,5,6,7 over 3 vars (a=bit0).
	// Known minimal covers have 3 cubes of 2 literals.
	d = Minimize([]uint32{0, 1, 2, 5, 6, 7}, 3)
	if len(d) != 3 {
		t.Errorf("QM example: got %d cubes (%v), want 3", len(d), d)
	}
	for _, c := range d {
		if c.NumLiterals() != 2 {
			t.Errorf("QM example: cube %v has %d literals, want 2", c, c.NumLiterals())
		}
	}
}

func TestMinimizeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := &quick.Config{
		MaxCount: 400,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			nvars := 1 + rng.Intn(6)
			var onset []uint32
			for m := uint32(0); m < uint32(1)<<nvars; m++ {
				if rng.Intn(2) == 0 {
					onset = append(onset, m)
				}
			}
			vals[0] = reflect.ValueOf(onset)
			vals[1] = reflect.ValueOf(nvars)
		},
	}
	prop := func(onset []uint32, nvars int) bool {
		d := Minimize(onset, nvars)
		inOn := map[uint32]bool{}
		for _, m := range onset {
			inOn[m] = true
		}
		for m := uint32(0); m < uint32(1)<<nvars; m++ {
			if d.Contains(m) != inOn[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeIsIrredundant(t *testing.T) {
	// Dropping any cube from the cover must lose at least one minterm.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nvars := 2 + rng.Intn(5)
		var onset []uint32
		for m := uint32(0); m < uint32(1)<<nvars; m++ {
			if rng.Intn(3) == 0 {
				onset = append(onset, m)
			}
		}
		d := Minimize(onset, nvars)
		for drop := range d {
			reduced := make(DNF, 0, len(d)-1)
			reduced = append(reduced, d[:drop]...)
			reduced = append(reduced, d[drop+1:]...)
			lost := false
			for _, m := range onset {
				if !reduced.Contains(m) {
					lost = true
					break
				}
			}
			if !lost {
				t.Fatalf("redundant cube %v in cover %v of onset %v", d[drop], d, onset)
			}
		}
	}
}

func TestDNFFormat(t *testing.T) {
	var d DNF
	if d.Format(nil) != "false" {
		t.Errorf("empty DNF = %q", d.Format(nil))
	}
	d = DNF{{Care: 1, Val: 1}, {Care: 2, Val: 0}}
	got := d.Format([]string{"x", "y"})
	if got != "x || !y" {
		t.Errorf("Format = %q", got)
	}
}

func TestMinimizePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range minterm")
		}
	}()
	Minimize([]uint32{4}, 2)
}
