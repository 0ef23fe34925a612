package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/tscfp"
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

// oneShotKey is contentKey without the prefix state: the whole payload
// encoded in one pass and then hashed, as every address was once derived.
// It is the oracle the resumed keys must equal.
func oneShotKey(design *tscfp.Design, opts tscfp.RunOptions, sweep *SweepSpec) (string, error) {
	opts.Parallelism = 0
	if sweep != nil {
		s := *sweep
		s.Workers = 0
		sweep = &s
	}
	payload := struct {
		Design  *tscfp.Design    `json:"design"`
		Options tscfp.RunOptions `json:"options"`
		Sweep   *SweepSpec       `json:"sweep,omitempty"`
	}{design, opts, sweep}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&payload); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// keyTestDesign is an inline design whose names need JSON escaping (HTML
// characters, U+2028, a quote) and whose second module leaves its kind
// out.
const keyTestDesign = `{"name": "inline <&> \u2028 \"q\"", "dies": 2, "outline_w_um": 100, "outline_h_um": 100,
	"modules": [{"name": "a&b", "kind": "hard", "w_um": 10, "h_um": 10, "power_w": 1, "sensitive": true},
	{"name": "<c>", "w_um": 10, "h_um": 12.5, "min_aspect": 0.5, "max_aspect": 2, "power_w": 0.25,
	 "intrinsic_delay_ns": 0.1}],
	"nets": [{"name": "n0", "modules": [0, 1], "terminals": [0]}],
	"terminals": [{"name": "p0", "x_um": 0, "y_um": 50}]}`

// randomRunOptions draws a knob set in which each field is set or left
// zero at random, parallelism included (the key must ignore it).
func randomRunOptions(rng *rand.Rand) tscfp.RunOptions {
	var o tscfp.RunOptions
	pick := func() bool { return rng.Intn(2) == 0 }
	if pick() {
		o.Mode = []tscfp.Mode{"pa", "power-aware", "tsc", tscfp.TSCAware}[rng.Intn(4)]
	}
	if pick() {
		o.Seed = rng.Int63() - rng.Int63()
	}
	if pick() {
		o.Iterations = rng.Intn(5000)
	}
	if pick() {
		o.GridN = 2 + rng.Intn(60)
	}
	if pick() {
		o.ActivitySamples = rng.Intn(200)
	}
	if pick() {
		b := pick()
		o.PostProcess = &b
	}
	if pick() {
		o.PostCriterion = []tscfp.PostCriterion{tscfp.BottomDie, tscfp.AllDies}[rng.Intn(2)]
	}
	for n := rng.Intn(3); n > 0; n-- {
		o.ProtectedModules = append(o.ProtectedModules, rng.Intn(100))
	}
	if pick() {
		o.MaxDummyGroups = rng.Intn(10)
	}
	if pick() {
		o.VoltEvery = rng.Intn(20)
	}
	if pick() {
		w := tscfp.DefaultWeights(tscfp.TSCAware)
		w.Correlation = rng.Float64() * 1e3
		w.Wirelength = rng.ExpFloat64() / 7
		o.Weights = &w
	}
	if pick() {
		o.Parallelism = 1 + rng.Intn(8)
	}
	if pick() {
		o.Replicas = rng.Intn(5)
	}
	if pick() {
		o.Speculation = rng.Intn(5)
	}
	return o
}

// randomSweep draws a sweep block, or nil, with a worker count the key must
// ignore.
func randomSweep(rng *rand.Rand) *SweepSpec {
	if rng.Intn(2) == 0 {
		return nil
	}
	s := &SweepSpec{Workers: rng.Intn(4)}
	for n := rng.Intn(4); n > 0; n-- {
		s.Seeds = append(s.Seeds, rng.Int63n(1000))
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.Modes = append(s.Modes, []tscfp.Mode{tscfp.PowerAware, tscfp.TSCAware}[rng.Intn(2)])
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.GridNs = append(s.GridNs, 8+rng.Intn(24))
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.Iterations = append(s.Iterations, rng.Intn(3000))
	}
	return s
}

// keyedTestDesigns returns the six built-in designs from the builtins table
// and keyTestDesign hashed as admission hashes an inline design.
func keyedTestDesigns(t testing.TB) map[string]*keyedDesign {
	t.Helper()
	out := make(map[string]*keyedDesign)
	for _, name := range tscfp.Benchmarks() {
		kd, err := builtins.get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = kd
	}
	var inline tscfp.Design
	if err := json.Unmarshal([]byte(keyTestDesign), &inline); err != nil {
		t.Fatal(err)
	}
	kd, err := newKeyedDesign(&inline)
	if err != nil {
		t.Fatal(err)
	}
	out["inline"] = kd
	return out
}

// TestContentKeyMatchesOneShot: a key resumed from a design's prefix state
// equals the one-shot encoding's for the six built-ins and an inline
// design, over random knob sets with and without a sweep block.
func TestContentKeyMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for name, kd := range keyedTestDesigns(t) {
		for i := 0; i < 16; i++ {
			opts, sweep := randomRunOptions(rng), randomSweep(rng)
			got, err := contentKey(kd, opts, sweep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oneShotKey(kd.Design, opts, sweep)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s, options %+v, sweep %+v: key %s, one-shot %s", name, opts, sweep, got, want)
			}
		}
	}
}

// TestSweepPrescanMatchesOneShot checks runSweep's prescan keys against
// the oracle: with every cell stored under its one-shot key, a sweep job,
// by name and inline, is served from the store without running a flow,
// and each cell names its one-shot key and counts one hit on it.
func TestSweepPrescanMatchesOneShot(t *testing.T) {
	reg := openRegistry(t, t.TempDir())
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, Store: reg})
	const (
		options = `"options": {"mode": "pa", "seed": 3, "iterations": 50, "grid_n": 12, "parallelism": 2}`
		sweep   = `"sweep": {"seeds": [1, 2], "modes": ["pa", "tsc-aware"], "grid_ns": [12, 16], "iterations": [40], "workers": 2}`
	)
	for name, body := range map[string]string{
		"by name": `{"benchmark": "n100", ` + options + `, ` + sweep + `}`,
		"inline":  `{"design": ` + keyTestDesign + `, ` + options + `, ` + sweep + `}`,
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		kd, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		grid := tscfp.Grid{Design: kd.Design, Seeds: req.Sweep.Seeds, Modes: req.Sweep.Modes,
			GridNs: req.Sweep.GridNs, Iterations: req.Sweep.Iterations}
		cells := grid.Cells()
		want := make([]string, len(cells))
		for i, c := range cells {
			if want[i], err = oneShotKey(kd.Design, c.Overlay(req.Options), nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := reg.Put(want[i], []byte(`{"cell":true}`), "j-000000", 0); err != nil {
				t.Fatal(err)
			}
		}

		st, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: sweep submit = %d", name, resp.StatusCode)
		}
		waitState(t, ts, st.ID, StateDone)
		var manifest sweepManifest
		if err := json.Unmarshal([]byte(fetch(t, ts, "/v1/jobs/"+st.ID+"/result")), &manifest); err != nil {
			t.Fatal(err)
		}
		if len(manifest.Cells) != len(want) {
			t.Fatalf("%s: manifest has %d cells, want %d", name, len(manifest.Cells), len(want))
		}
		for i, c := range manifest.Cells {
			if c.Artifact != want[i] || !c.Deduped {
				t.Errorf("%s: cell %d = %+v, want deduped onto one-shot key %s", name, i, c, want[i])
			}
			if a, _ := reg.Lookup(want[i]); a.Hits != 1 {
				t.Errorf("%s: cell %d artifact has %d hits, want 1", name, i, a.Hits)
			}
		}
	}
}

// BenchmarkDedupeKey compares deriving an n100 submission's address from
// the prefix state with encoding the whole payload.
func BenchmarkDedupeKey(b *testing.B) {
	kd, err := builtins.get("n100")
	if err != nil {
		b.Fatal(err)
	}
	opts := testRunOptions
	for _, bc := range []struct {
		name string
		key  func() (string, error)
	}{
		{"resumed", func() (string, error) { return contentKey(kd, opts, nil) }},
		{"one-shot", func() (string, error) { return oneShotKey(kd.Design, opts, nil) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.key(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
