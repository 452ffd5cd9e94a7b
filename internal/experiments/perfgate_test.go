package experiments

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerfgateTwoCoreRatio runs scripts/perfgate.go over synthetic engine
// records that differ in nothing but two_core_ratio_n16_ring: above the floor
// the gate passes, below it the gate fails and says which check did, and a
// fresh record without the ratio (a single-CPU runner) passes and says so.
func TestPerfgateTwoCoreRatio(t *testing.T) {
	dir := t.TempDir()
	record := func(name string, ratio float64) string {
		doc := &EngineBench{
			GoMax: 1, SpeedupN16Ring: 100, TwoCoreRatioN16Ring: ratio,
			Cells: []*EngineCell{{Workload: "ring/n=16", EventsPerSec: 2e5, AllocsPerEvent: 30}},
		}
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	committed := record("committed.json", 0.80)
	for _, c := range []struct {
		name  string
		ratio float64
		ok    bool
		says  string
	}{
		{"held.json", 0.86, true, "two_core_ratio_n16_ring 0.86"},
		{"lost.json", 0.55, false, "FAIL n=16 ring at 2 procs runs at 0.55x"},
		{"onecpu.json", 0, true, "not measured by the fresh run"},
	} {
		out, err := exec.Command("go", "run", filepath.Join("..", "..", "scripts", "perfgate.go"), record(c.name, c.ratio), committed).CombinedOutput()
		if (err == nil) != c.ok {
			t.Errorf("ratio %.2f: gate passed = %v, want %v\n%s", c.ratio, err == nil, c.ok, out)
		}
		if !strings.Contains(string(out), c.says) {
			t.Errorf("ratio %.2f: output lacks %q:\n%s", c.ratio, c.says, out)
		}
	}
}
