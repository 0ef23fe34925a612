package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/tscfp"
)

// testJobBody is a small n100-class submission (tiny grid, short anneal)
// whose flow completes in well under a second.
const testJobBody = `{
	"benchmark": "n100",
	"options": {"mode": "tsc", "seed": 42, "iterations": 100, "grid_n": 12,
	            "activity_samples": 4, "max_dummy_groups": 2}
}`

// testRunOptions mirrors testJobBody for in-process reference runs.
var testRunOptions = tscfp.RunOptions{
	Mode: "tsc", Seed: 42, Iterations: 100, GridN: 12,
	ActivitySamples: 4, MaxDummyGroups: 2,
}

// newTestServer builds a started server, over a registry in t.TempDir()
// unless cfg names a Store, plus its HTTP front end; cleanup drains both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = openRegistry(t, t.TempDir())
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain(300 * time.Millisecond)
		ts.Close()
	})
	return s, ts
}

// openRegistry opens a registry rooted at dir with default bounds.
func openRegistry(t testing.TB, dir string) *registry.Registry {
	t.Helper()
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func submit(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submission response: %v", err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return st
}

// followSSE consumes a job's event stream until the terminal state event,
// returning every received event in order.
func followSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "state" {
					var st JobStatus
					if err := json.Unmarshal(cur.data, &st); err != nil {
						t.Fatalf("bad state event %q: %v", cur.data, err)
					}
					if st.State.Terminal() {
						return events
					}
				}
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("SSE stream ended without a terminal state event (%d events)", len(events))
	return nil
}

// decodeResult fetches and decodes a completed job's Result.
func decodeResult(t *testing.T, ts *httptest.Server, id string) *tscfp.Result {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	res, err := tscfp.ReadResult(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEndToEndSingleJob is the acceptance path: a job submitted over HTTP
// completes with SSE progress events in stage order, its Result matches an
// in-process run with the same seed, a duplicate submission dedupes to the
// same artifact with lineage, and /metrics reflects all of it.
func TestEndToEndSingleJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})

	st, resp := submit(t, ts, testJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	events := followSSE(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	if final.ArtifactID == "" || final.Deduped {
		t.Fatalf("first run should produce a fresh artifact, got %+v", final)
	}

	// Progress stages must appear in flow order. The replay coalesces
	// within a stage, never across stages, so first-appearance order is the
	// emission order.
	wantOrder := []tscfp.Stage{
		tscfp.StageAnneal, tscfp.StageFinalize, tscfp.StageSampling,
		tscfp.StagePostProcess, tscfp.StageDone,
	}
	var stages []tscfp.Stage
	seen := map[tscfp.Stage]bool{}
	for _, ev := range events {
		if ev.name != "progress" {
			continue
		}
		var pe tscfp.Event
		if err := json.Unmarshal(ev.data, &pe); err != nil {
			t.Fatalf("bad progress event %q: %v", ev.data, err)
		}
		if !seen[pe.Stage] {
			seen[pe.Stage] = true
			stages = append(stages, pe.Stage)
		}
	}
	if fmt.Sprint(stages) != fmt.Sprint(wantOrder) {
		t.Fatalf("progress stages = %v, want %v", stages, wantOrder)
	}

	// The served Result must match an in-process run bit-for-bit (runtime
	// aside) — same seed, same options, same determinism contract.
	got := decodeResult(t, ts, st.ID)
	opts, err := testRunOptions.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tscfp.Run(context.Background(), tscfp.MustBenchmark("n100"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	got.Metrics.RuntimeSec, want.Metrics.RuntimeSec = 0, 0
	gotJSON, _ := got.JSON()
	wantJSON, _ := want.JSON()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served result differs from in-process run (%d vs %d bytes)",
			len(gotJSON), len(wantJSON))
	}

	// Duplicate submission: no run, same artifact, lineage to the producer.
	st2, resp2 := submit(t, ts, testJobBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status = %d", resp2.StatusCode)
	}
	if !st2.Deduped || st2.State != StateDone {
		t.Fatalf("duplicate should dedupe, got %+v", st2)
	}
	if st2.ArtifactID != final.ArtifactID {
		t.Fatalf("dedupe artifact %s != original %s", st2.ArtifactID, final.ArtifactID)
	}
	if st2.LineageJob != final.ID {
		t.Fatalf("dedupe lineage %s != producing job %s", st2.LineageJob, final.ID)
	}
	// The deduped job's SSE stream still serves a terminal state replay.
	dedupeEvents := followSSE(t, ts, st2.ID)
	if len(dedupeEvents) == 0 {
		t.Fatal("deduped job produced no SSE events")
	}

	// A semantically identical submission spelled differently (full mode
	// name, explicit design instead of benchmark) hits the same artifact.
	design, _ := json.Marshal(tscfp.MustBenchmark("n100"))
	alt := fmt.Sprintf(`{"design": %s, "options": {"mode": "tsc-aware", "seed": 42,
		"iterations": 100, "grid_n": 12, "activity_samples": 4, "max_dummy_groups": 2}}`, design)
	st3, resp3 := submit(t, ts, alt)
	if resp3.StatusCode != http.StatusOK || st3.ArtifactID != final.ArtifactID {
		t.Fatalf("inline-design duplicate should hit the same artifact: status %d, %+v",
			resp3.StatusCode, st3)
	}

	metrics := fetch(t, ts, "/metrics")
	for _, want := range []string{
		"tscfpd_jobs_completed_total 1",
		"tscfpd_jobs_deduped_total 2",
		`tscfpd_stage_latency_seconds_count{stage="anneal"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSweepJob runs a 2-seed sweep, checks the manifest, and verifies that
// a later single-run submission of one cell dedupes against the artifact
// the sweep stored for that cell.
func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})

	body := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "iterations": 80, "grid_n": 12,
		            "activity_samples": 2, "max_dummy_groups": 1},
		"sweep": {"seeds": [1, 2]}
	}`
	st, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	events := followSSE(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("sweep state = %s (error %q)", final.State, final.Error)
	}

	cellEvents := 0
	for _, ev := range events {
		if ev.name == "cell" {
			cellEvents++
		}
	}
	if cellEvents != 2 {
		t.Fatalf("saw %d cell events, want 2", cellEvents)
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
	if len(manifest.Cells) != 2 {
		t.Fatalf("manifest has %d cells, want 2", len(manifest.Cells))
	}
	for _, c := range manifest.Cells {
		if c.Artifact == "" || c.Error != "" {
			t.Fatalf("bad manifest cell %+v", c)
		}
	}
	if manifest.Cells[0].Artifact == manifest.Cells[1].Artifact {
		t.Fatal("different seeds produced the same artifact ID")
	}

	// Submitting cell 0 (seed 1) as a single run must hit the sweep's
	// stored artifact, with lineage back to the sweep job.
	single := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "seed": 1, "iterations": 80, "grid_n": 12,
		            "activity_samples": 2, "max_dummy_groups": 1}
	}`
	st2, resp3 := submit(t, ts, single)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cell resubmit status = %d, want dedupe hit", resp3.StatusCode)
	}
	if st2.ArtifactID != manifest.Cells[0].Artifact || st2.LineageJob != st.ID {
		t.Fatalf("cell dedupe = %+v, want artifact %s from job %s",
			st2, manifest.Cells[0].Artifact, st.ID)
	}
}

// TestParallelismDedupes: results are byte-identical for every parallelism
// setting, so a resubmission that differs only in parallelism (unset, 0, 1
// or 2) is a 200 dedupe hit on the first run's artifact, and so is a sweep
// cell whose options set it.
func TestParallelismDedupes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	const opts = `"mode": "tsc", "seed": 5, "iterations": 60, "grid_n": 8, "activity_samples": 2, "max_dummy_groups": 1`

	first, resp := submit(t, ts, `{"benchmark": "n100", "options": {`+opts+`, "parallelism": 2}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	followSSE(t, ts, first.ID)
	final := getStatus(t, ts, first.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	for _, par := range []string{``, `, "parallelism": 0`, `, "parallelism": 1`} {
		st, resp := submit(t, ts, `{"benchmark": "n100", "options": {`+opts+par+`}}`)
		if resp.StatusCode != http.StatusOK || !st.Deduped || st.ArtifactID != final.ArtifactID {
			t.Errorf("resubmit with %q: status %d, %+v; want a dedupe hit on %s", par, resp.StatusCode, st, final.ArtifactID)
		}
	}

	sweep, _ := submit(t, ts, `{"benchmark": "n100", "options": {`+opts+`, "parallelism": 1}, "sweep": {"seeds": [5]}}`)
	followSSE(t, ts, sweep.ID)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sweep.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var manifest sweepManifest
	if err := json.NewDecoder(resp2.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Cells) != 1 || !manifest.Cells[0].Deduped || manifest.Cells[0].Artifact != final.ArtifactID {
		t.Fatalf("sweep manifest %+v, want one deduped cell on %s", manifest, final.ArtifactID)
	}
}

// TestReplicaJob runs a 2-replica speculative job end to end over HTTP: the
// job completes with SSE progress, its Result carries the repl_*/spec_*
// stats and matches an in-process run with the same shape, and the dedupe
// key treats the serial spellings ("replicas": 1 vs omitted) as the same
// submission while keeping the 2-replica artifact distinct.
func TestReplicaJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})

	body := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "seed": 42, "iterations": 100, "grid_n": 12,
		            "activity_samples": 4, "max_dummy_groups": 2,
		            "replicas": 2, "speculation": 2}
	}`
	st, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	followSSE(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("replica job state = %s (error %q)", final.State, final.Error)
	}
	got := decodeResult(t, ts, st.ID)
	if got.Stats.ReplicaCount != 2 || got.Stats.SpecWorkers != 2 {
		t.Fatalf("served result missing parallel stats: %+v", got.Stats)
	}

	ro := testRunOptions
	ro.Replicas, ro.Speculation = 2, 2
	opts, err := ro.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tscfp.Run(context.Background(), tscfp.MustBenchmark("n100"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	got.Metrics.RuntimeSec, want.Metrics.RuntimeSec = 0, 0
	gotJSON, _ := got.JSON()
	wantJSON, _ := want.JSON()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served replica result differs from in-process run (%d vs %d bytes)",
			len(gotJSON), len(wantJSON))
	}

	// Serial baseline, then the explicit "replicas": 1 spelling: Canonical
	// normalizes 1 to 0, so the spelling must dedupe against the serial
	// artifact — and not against the 2-replica one.
	stSerial, respSerial := submit(t, ts, testJobBody)
	if respSerial.StatusCode != http.StatusCreated {
		t.Fatalf("serial submit status = %d", respSerial.StatusCode)
	}
	followSSE(t, ts, stSerial.ID)
	finalSerial := getStatus(t, ts, stSerial.ID)
	if finalSerial.State != StateDone {
		t.Fatalf("serial job state = %s", finalSerial.State)
	}
	if finalSerial.ArtifactID == final.ArtifactID {
		t.Fatal("serial and 2-replica runs content-addressed identically")
	}
	one := strings.Replace(testJobBody, `"max_dummy_groups": 2`,
		`"max_dummy_groups": 2, "replicas": 1, "speculation": 1`, 1)
	st2, resp2 := submit(t, ts, one)
	if resp2.StatusCode != http.StatusOK || !st2.Deduped {
		t.Fatalf("replicas=1 spelling did not dedupe: status %d, %+v", resp2.StatusCode, st2)
	}
	if st2.ArtifactID != finalSerial.ArtifactID {
		t.Fatalf("replicas=1 deduped to %s, want the serial artifact %s",
			st2.ArtifactID, finalSerial.ArtifactID)
	}
}

// TestCancelRunningJob cancels a long-running job via DELETE and expects a
// prompt cancelled state.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})

	body := `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`
	st, _ := submit(t, ts, body)
	waitState(t, ts, st.ID, StateRunning)

	cancelJob(t, ts, st.ID)
	waitState(t, ts, st.ID, StateCancelled)
}

// TestCancelQueuedJob cancels a job that is still waiting behind a blocker
// and expects it to finalize without ever running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})

	blocker, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, blocker.ID, StateRunning)
	queued, _ := submit(t, ts, testJobBody)

	cancelJob(t, ts, queued.ID)
	st := getStatus(t, ts, queued.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s", st.State)
	}
	if st.Started != nil {
		t.Fatalf("cancelled-while-queued job should never start, got %+v", st)
	}
}

// TestTerminalJobsDropDesign checks that retained job records do not pin
// designs: a done job, a deduped job and a queued-then-cancelled job each
// hold no *tscfp.Design, and each still reports the design name. The
// deduped and cancelled submissions carry inline designs, so the decoded
// netlist of the request is covered as well as the resolved design.
func TestTerminalJobsDropDesign(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	design, _ := json.Marshal(tscfp.MustBenchmark("n100"))
	inline := func(seed int) string {
		return fmt.Sprintf(`{"design": %s, "options": {"mode": "tsc", "seed": %d,
			"iterations": 100, "grid_n": 12, "activity_samples": 4, "max_dummy_groups": 2}}`, design, seed)
	}

	done, _ := submit(t, ts, testJobBody)
	waitState(t, ts, done.ID, StateDone)
	deduped, resp := submit(t, ts, inline(42))
	if resp.StatusCode != http.StatusOK || !deduped.Deduped {
		t.Fatalf("inline duplicate: status %d, %+v", resp.StatusCode, deduped)
	}
	blocker, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, blocker.ID, StateRunning)
	queued, _ := submit(t, ts, inline(7))
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, blocker.ID)

	for name, id := range map[string]string{"done": done.ID, "deduped": deduped.ID, "cancelled": queued.ID} {
		j := s.lookup(id)
		j.mu.Lock()
		pinned := j.design != nil || j.req.Design != nil
		j.mu.Unlock()
		if pinned {
			t.Errorf("%s job record still holds a *tscfp.Design", name)
		}
		if st := getStatus(t, ts, id); !st.State.Terminal() || st.Design != "n100" {
			t.Errorf("%s job status = %s, design %q; want terminal, design n100", name, st.State, st.Design)
		}
	}
}

// panicStore is a registry whose first Put panics, standing in for any
// fault that panics on a worker goroutine mid-job.
type panicStore struct {
	*registry.Registry
	tripped atomic.Bool
}

func (p *panicStore) Put(id string, data []byte, jobID string, jobSeq uint64) (registry.Artifact, bool, error) {
	if p.tripped.CompareAndSwap(false, true) {
		panic("injected store fault")
	}
	return p.Registry.Put(id, data, jobID, jobSeq)
}

// TestWorkerPanicFailsJob: a panic on the worker goroutine fails that job
// with the panic value in its error, counts on /metrics, and leaves the
// single worker serving — the resubmitted job completes.
func TestWorkerPanicFailsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Store: &panicStore{Registry: openRegistry(t, t.TempDir())}})

	first, _ := submit(t, ts, testJobBody)
	waitState(t, ts, first.ID, StateFailed)
	if st := getStatus(t, ts, first.ID); !strings.Contains(st.Error, "injected store fault") {
		t.Fatalf("panicked job error = %q, want the panic value", st.Error)
	}
	metrics := fetch(t, ts, "/metrics")
	for _, want := range []string{"tscfpd_job_panics_total 1\n", "tscfpd_jobs_failed_total 1\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}

	second, _ := submit(t, ts, testJobBody)
	waitState(t, ts, second.ID, StateDone)
}

// TestNewRequiresStore: a Config without a Store is a caller's bug, and New
// panics naming the field instead of serving from a store of its own.
func TestNewRequiresStore(t *testing.T) {
	var got any
	func() {
		defer func() { got = recover() }()
		New(Config{})
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "Config.Store") {
		t.Fatalf("New(Config{}) panicked with %v, want a message naming Config.Store", got)
	}
}

// TestQueueBoundsAndValidation exercises admission control: a full queue
// returns 503 with Retry-After, and malformed submissions return 400/413.
func TestQueueBoundsAndValidation(t *testing.T) {
	// emptyDesign and flatDesign pass Design.Validate, but the flow cannot
	// run either; a zero-module sweep used to panic on a sweep worker and
	// end the daemon. hotDesign fails Design.Validate on its module power,
	// and oneModule's hostile variants on its outline, sides or delay: each
	// used to run the whole flow and fail the job when its Result would not
	// encode (or, at -5 ns, report a zero critical delay). nullTerminal's
	// null decodes to a nil terminal, and nineDies is past the die bound;
	// grid_n and the evaluator states are bounded likewise. The knobs with
	// no wire form are unknown keys: a client must never switch on the cost
	// cross-check, which forfeits the incremental speedup. None of these
	// requests runs a flow.
	const (
		emptyDesign = `{"name": "empty", "dies": 2, "outline_w_um": 100, "outline_h_um": 100}`
		flatDesign  = `{"name": "flat", "dies": 1, "outline_w_um": 100, "outline_h_um": 100,
			"modules": [{"name": "a", "kind": "hard", "w_um": 10, "h_um": 10, "power_w": 1}]}`
		hotDesign = `{"name": "hot", "dies": 2, "outline_w_um": 100, "outline_h_um": 100,
			"modules": [{"name": "a", "kind": "hard", "w_um": 10, "h_um": 10, "power_w": 1e7}]}`
		oneModule = `{"name": "one", "dies": 2, "outline_w_um": %g, "outline_h_um": %g,
			"modules": [{"name": "a", "kind": "soft", "w_um": %g, "h_um": %g, "min_aspect": 0.5, "max_aspect": 2,
			"power_w": 1, "intrinsic_delay_ns": %g}]}`
		twoModules = `"outline_w_um": 100, "outline_h_um": 100,
			"modules": [{"name": "a", "kind": "hard", "w_um": 10, "h_um": 10, "power_w": 1},
			{"name": "b", "kind": "hard", "w_um": 10, "h_um": 10, "power_w": 1}]`
		nullTerminal = `{"name": "null-pin", "dies": 2, ` + twoModules + `, "terminals": [null]}`
		nineDies     = `{"name": "tall", "dies": 9, ` + twoModules + `}`
	)
	hostile := func(outline, w, h, delay float64) string {
		return `{"design": ` + fmt.Sprintf(oneModule, outline, outline, w, h, delay) + `}`
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, MaxBodyBytes: 4096})

	blocker, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, blocker.ID, StateRunning)
	if _, resp := submit(t, ts, testJobBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first queued submit = %d", resp.StatusCode)
	}
	_, resp := submit(t, ts, `{"benchmark": "n100", "options": {"seed": 99}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	for name, body := range map[string]string{
		"unknown benchmark":     `{"benchmark": "n9000"}`,
		"no design":             `{"options": {"seed": 1}}`,
		"benchmark and design":  `{"benchmark": "n100", "design": {"name": "x"}}`,
		"bad mode":              `{"benchmark": "n100", "options": {"mode": "fast"}}`,
		"bad criterion":         `{"benchmark": "n100", "options": {"post_criterion": "top"}}`,
		"negative iterations":   `{"benchmark": "n100", "options": {"iterations": -1}}`,
		"protected module":      `{"benchmark": "n100", "options": {"protected_modules": [5000]}}`,
		"zero modules":          `{"design": ` + emptyDesign + `}`,
		"zero-module sweep":     `{"design": ` + emptyDesign + `, "sweep": {"seeds": [1, 2]}}`,
		"single die":            `{"design": ` + flatDesign + `}`,
		"module power 1e7 W":    `{"design": ` + hotDesign + `}`,
		"outline 1e160 um":      hostile(1e160, 10, 10, 0.1),
		"module sides 1e200":    hostile(100, 1e200, 1e200, 0.1),
		"soft width 8.99e307":   hostile(100, 8.99e307, 10, 0.1),
		"delay 1e308 ns":        hostile(100, 10, 10, 1e308),
		"delay -5 ns":           hostile(100, 10, 10, -5),
		"grid_n 1":              `{"benchmark": "n100", "options": {"grid_n": 1}}`,
		"grid_n 257":            `{"benchmark": "n100", "options": {"grid_n": 257}}`,
		"72 evaluator states":   `{"benchmark": "n100", "options": {"replicas": 9, "speculation": 8}}`,
		"null terminal":         `{"design": ` + nullTerminal + `}`,
		"nine dies":             `{"design": ` + nineDies + `}`,
		"unknown field":         `{"benchmark": "n100", "bogus": 1}`,
		"removed knob sigma":    `{"benchmark": "n100", "options": {"activity_sigma": 0.1}}`,
		"removed knob volt":     `{"benchmark": "n100", "options": {"volt_target_factor": 1.15}}`,
		"removed knob vias":     `{"benchmark": "n100", "options": {"dummy_vias_per_group": 8}}`,
		"cross-check key":       `{"benchmark": "n100", "options": {"CostCrossCheck": true}}`,
		"cross-check lowercase": `{"benchmark": "n100", "options": {"costcrosscheck": true}}`,
		"progress key":          `{"benchmark": "n100", "options": {"Progress": null}}`,
		"dash key":              `{"benchmark": "n100", "options": {"-": true}}`,
		"truncated":             `{"benchmark": "n1`,
	} {
		if _, resp := submit(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	big := fmt.Sprintf(`{"benchmark": "n100", "options": {"protected_modules": [%s1]}}`,
		strings.Repeat("1,", 4096))
	if _, resp := submit(t, ts, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestDrain is the shutdown acceptance path: during drain /readyz flips to
// 503 and admission stops; a long-running job is cancelled within the
// deadline; and after drain no server goroutine survives.
func TestDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2, QueueCap: 8, Store: openRegistry(t, t.TempDir())})
	s.Start()
	ts := httptest.NewServer(s.Handler())

	if body := fetch(t, ts, "/readyz"); !strings.Contains(body, "ready") {
		t.Fatalf("readyz before drain = %q", body)
	}
	st, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, st.ID, StateRunning)

	start := time.Now()
	s.Drain(250 * time.Millisecond)
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("drain took %s, deadline was 250ms", e)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if _, resp := submit(t, ts, testJobBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	if got := getStatus(t, ts, st.ID); got.State != StateCancelled {
		t.Fatalf("in-flight job after drain = %s, want cancelled", got.State)
	}

	ts.Close()
	waitGoroutines(t, before)
}

// cancelJob issues DELETE /v1/jobs/{id}.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
}

// waitState polls a job until it reaches want (or any terminal state).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state = %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetch(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// waitGoroutines asserts the goroutine count returns to the baseline —
// workers, SSE fanout, and flow goroutines must all exit after drain.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
