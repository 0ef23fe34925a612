package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// Pinned content addresses. Every stored artifact dedupes by contentKey over
// the design JSON and the canonical RunOptions JSON, so a change to a
// RunOptions field, JSON tag or canonical spelling, or to how a sweep cell
// overlays the job's options, would silently stop a restarted tscfpd from
// finding the artifacts it already stored. These literals were computed by
// an earlier release and must not be edited to make the test pass.
const (
	// pinnedSingleKey is testJobBody's address.
	pinnedSingleKey = "sha256:c3b54a0e4aae4171bc3caa27aac872cb12c8faa4cf20954bae3ab0afb42be1bb"
	// pinnedSweepCellKey is the address of the seed-1 cell of
	// TestSweepJob's sweep, which equals that of the single-run submission
	// TestSweepJob resubmits.
	pinnedSweepCellKey = "sha256:20106e19b125e1013cb1454d06af5e10cdf533619f48e0e533825b12218db493"
)

// TestContentKeyPinned checks contentKey against the pinned literals for a
// single-run submission (decoded and normalized as admission does) and for
// a sweep cell (through the full sweep job, so the cell overlay is the one
// runSweep uses).
func TestContentKeyPinned(t *testing.T) {
	var req JobRequest
	if err := json.Unmarshal([]byte(testJobBody), &req); err != nil {
		t.Fatal(err)
	}
	design, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := contentKey(design, req.Options, req.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if key != pinnedSingleKey {
		t.Errorf("testJobBody address = %s, want %s", key, pinnedSingleKey)
	}

	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	body := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "iterations": 80, "grid_n": 12,
		            "activity_samples": 2, "max_dummy_groups": 1},
		"sweep": {"seeds": [1]}
	}`
	st, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	followSSE(t, ts, st.ID)
	if final := getStatus(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("sweep state = %s (error %q)", final.State, final.Error)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var manifest sweepManifest
	if err := json.NewDecoder(resp2.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Cells) != 1 {
		t.Fatalf("manifest has %d cells, want 1", len(manifest.Cells))
	}
	if got := manifest.Cells[0].Artifact; got != pinnedSweepCellKey {
		t.Errorf("seed-1 sweep cell address = %s, want %s", got, pinnedSweepCellKey)
	}
}
