package main

import "testing"

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units and directions, or the driver rejects the output.
func TestContractMatchesProgram(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: contract %q, program %q", i, c.Workloads[i].Name, w.name)
		}
		if c.Workloads[i].Why != w.why {
			t.Errorf("workload %s: the contract's why differs from the program's", w.name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("contract has %d end-to-end metrics, program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.higher) {
			t.Errorf("end-to-end %d: contract %+v, program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, got.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("contract has %d per-layer metrics, program %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := c.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.higher) {
			t.Errorf("per-layer %d: contract %+v, program %+v", i, got, m)
		}
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("contract run_seconds %d, program default %d", c.RunSeconds, defaultSeconds)
	}
}
