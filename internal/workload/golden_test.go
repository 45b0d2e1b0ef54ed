package workload

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "regenerate testdata/machine.golden.json")

// machineGoldenPath is the checked-in modelled accounting of the machine
// layer: for every suite program, with the ITLB and without it, every
// surface runAccounted collects. Each is a deterministic counter with no
// wall-clock field, so the fixture pins the modelled machine against
// history the way internal/serve's accounting fixture pins the pool.
// Regenerate it only on a deliberate modelled change:
//
//	go test ./internal/workload -run TestMachineAccountingGolden -update
const machineGoldenPath = "testdata/machine.golden.json"

// machineRow is one fixture entry.
type machineRow struct {
	Name string `json:"name"`
	accounted
}

// TestMachineAccountingGolden runs every suite program under the default
// configuration and under NoITLB and compares the full accounting with
// the fixture, byte for byte.
func TestMachineAccountingGolden(t *testing.T) {
	var got []machineRow
	for _, noITLB := range []bool{false, true} {
		for _, p := range Suite() {
			name := p.Name
			if noITLB {
				name += "/noitlb"
			}
			got = append(got, machineRow{Name: name, accounted: runAccounted(t, p, core.Config{NoITLB: noITLB})})
		}
	}
	buf, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(machineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(machineGoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(buf), machineGoldenPath)
		return
	}
	golden, err := os.ReadFile(machineGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/workload -run TestMachineAccountingGolden -update` to create it)", err)
	}
	if bytes.Equal(buf, golden) {
		return
	}
	var want []machineRow
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("fixture unreadable: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d rows, the test runs %d", len(want), len(got))
	}
	for i := range got {
		if want[i].Name != got[i].Name {
			t.Fatalf("row %d: fixture names %q, the test runs %q", i, want[i].Name, got[i].Name)
		}
		t.Run(got[i].Name, func(t *testing.T) {
			diffAccounted(t, want[i].Sum, want[i].accounted, got[i].accounted, "fixture", "now")
		})
	}
	t.Fatal("fixture bytes differ from a fresh encoding of equal rows")
}
