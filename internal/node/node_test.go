package node

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/serve"
)

// TestCompileRungProvenance pins what a node built in-process from a
// caller's snapshot reports: the zero BootInfo is the compile rung, as a
// cold `obarchd` boot reports it — no generation recovered (-1), no rung
// rejected — in /stats and /metrics alike.
func TestCompileRungProvenance(t *testing.T) {
	snap, err := obarch.NewSystem(obarch.Options{}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(snap, nil, BootInfo{}, Config{Pool: serve.Config{Workers: 1}, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown(context.Background())
	get := func(path string) string {
		w := httptest.NewRecorder()
		n.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Body.String()
	}

	var st struct {
		Image BootInfo `json:"image"`
	}
	if err := json.Unmarshal([]byte(get("/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if want := compileBoot(""); st.Image != want || want.Mode != "compile" || want.RecoveredGeneration != -1 || want.RecoveryLadder != 0 {
		t.Fatalf("/stats image = %+v, want the compile rung %+v", st.Image, want)
	}
	metrics := get("/metrics")
	for _, want := range []string{"obarch_recovered_generation -1\n", "obarch_recovery_ladder 0\n", `mode="compile"`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
}
