package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/report.golden.txt")

// reportGoldenPath is the checked-in paper report: every figure and table
// RunAll prints, exactly as `go run ./cmd/experiments` prints it. The
// shape tests check the report against thresholds; this fixture pins each
// number, so a change that moves one fails here first. Regenerate it only
// on a deliberate modelled change, and say why in CHANGES:
//
//	go test ./internal/experiments -run TestReportGolden -update
const reportGoldenPath = "testdata/report.golden.txt"

// TestReportGolden runs the whole report and compares it with the
// fixture, byte for byte.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(reportGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), reportGoldenPath)
		return
	}
	golden, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestReportGolden -update` to create it)", err)
	}
	if bytes.Equal(buf.Bytes(), golden) {
		return
	}
	got, want := strings.Split(buf.String(), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("report line %d differs from the fixture:\n fixture %q\n now     %q", i+1, w, g)
		}
	}
	t.Fatal("report bytes differ from the fixture")
}
