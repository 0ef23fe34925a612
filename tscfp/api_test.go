package tscfp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// testOptions keeps API tests fast: tiny grid, short anneal, few samples.
func testOptions(extra ...Option) []Option {
	opts := []Option{
		WithGridN(12),
		WithIterations(120),
		WithActivitySamples(6),
		WithMaxDummyGroups(4),
		WithSeed(42),
	}
	return append(opts, extra...)
}

// TestGoldenDeterminism is the WithSeed contract: the same design, seed, and
// options produce byte-identical JSON Results across independent runs.
func TestGoldenDeterminism(t *testing.T) {
	design := MustBenchmark("n100")
	encode := func() []byte {
		t.Helper()
		res, err := Run(context.Background(), design, testOptions(WithMode(TSCAware))...)
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics.RuntimeSec = 0 // wall clock is the one nondeterministic field
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed and options produced different JSON (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunCancellation cancels mid-anneal (from the first progress event) and
// expects a prompt ctx.Err() with no partial result.
func TestRunCancellation(t *testing.T) {
	design := MustBenchmark("n100")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flow, err := NewFlow(design,
		WithGridN(16),
		WithIterations(100000), // far more budget than the deadline allows
		WithSeed(7),
		WithProgress(func(ev Event) {
			if ev.Stage == StageAnneal {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := flow.Run(ctx)
	if res != nil {
		t.Fatal("cancelled run returned a partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A full 100k-iteration run takes minutes; a prompt exit stays well
	// under the generous bound (loose enough for slow CI machines).
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

// TestResultJSONRoundTrip checks that a Result survives encode/decode with
// all snapshot fields intact and validates.
func TestResultJSONRoundTrip(t *testing.T) {
	design := MustBenchmark("n100")
	res, err := Run(context.Background(), design, testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Core() == nil {
		t.Fatal("live result must carry the internal handle")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Core() != nil {
		t.Fatal("decoded result must not carry a live handle")
	}
	if back.Metrics.R1 != res.Metrics.R1 || back.Benchmark != res.Benchmark ||
		len(back.Modules) != len(res.Modules) || len(back.TSVs) != len(res.TSVs) {
		t.Fatal("round trip lost data")
	}
	// Renderers work from the snapshot alone.
	if hm, err := back.PowerHeatmap(0); err != nil || len(hm) == 0 {
		t.Fatalf("decoded heatmap: %q, %v", hm, err)
	}

	// Stored artifacts written before the incremental timing cache, the
	// adjacency index and the voltage candidate-tree cache were retired
	// carry their five sta_*, five adj_* and four volt_* counters in stats,
	// and a registry serves those bytes verbatim on dedupe hits: they must
	// still decode.
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	stats := doc["stats"].(map[string]any)
	for _, k := range []string{
		"sta_patches", "sta_rebuilds", "sta_modules_recomputed", "sta_crit_rescans", "sta_cross_checks",
		"adj_full_sweeps", "adj_incremental_updates", "adj_rows_changed", "adj_cross_checks", "adj_bulk_fallbacks",
		"volt_incremental_refreshes", "volt_candidates_reused", "volt_candidates_regrown", "volt_cross_checks",
	} {
		stats[k] = 1
	}
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	old, err := ReadResult(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("result with retired stats keys rejected: %v", err)
	}
	if err := old.Validate(); err != nil {
		t.Fatal(err)
	}
	if old.Stats != res.Stats || old.Metrics.R1 != res.Metrics.R1 {
		t.Fatal("retired stats keys disturbed the decoded result")
	}
}

// TestNonFiniteOptionsRejected checks NaN and ±Inf float knobs fail at
// NewFlow and at Canonical: JSON cannot carry them, so they would otherwise
// run a whole flow and only fail when the Result is encoded. Canonical's
// error must name the knob.
func TestNonFiniteOptionsRejected(t *testing.T) {
	design := MustBenchmark("n100")
	nanWeight := DefaultWeights(TSCAware)
	nanWeight.Correlation = math.NaN()
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"activity sigma NaN", WithActivitySigma(math.NaN())},
		{"volt target factor NaN", WithVoltTargetFactor(math.NaN())},
		{"volt target factor +Inf", WithVoltTargetFactor(math.Inf(1))},
		{"weight NaN", WithWeights(nanWeight)},
	} {
		if _, err := NewFlow(design, tc.opt); err == nil {
			t.Errorf("%s: accepted by NewFlow", tc.name)
		}
	}

	infWeight := DefaultWeights(PowerAware)
	infWeight.DesignRule = math.Inf(-1)
	for _, tc := range []struct {
		knob string
		o    RunOptions
	}{
		{"activity_sigma", RunOptions{ActivitySigma: math.Inf(1)}},
		{"volt_target_factor", RunOptions{VoltTargetFactor: math.NaN()}},
		{"weights.correlation", RunOptions{Weights: &nanWeight}},
		{"weights.design_rule", RunOptions{Mode: "pa", Weights: &infWeight}},
	} {
		_, err := tc.o.Canonical()
		if err == nil || !strings.Contains(err.Error(), tc.knob) {
			t.Errorf("%s: Canonical returned %v, want an error naming the knob", tc.knob, err)
		}
	}
}

// TestDesignJSONRoundTrip checks a decoded design is flow-equivalent to the
// original: same netlist stats and an identical flow result for the same
// seed.
func TestDesignJSONRoundTrip(t *testing.T) {
	design := MustBenchmark("n100")
	data, err := json.Marshal(design)
	if err != nil {
		t.Fatal(err)
	}
	var back Design
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumModules() != design.NumModules() || back.NumNets() != design.NumNets() ||
		back.NumTerminals() != design.NumTerminals() || back.TotalPower() != design.TotalPower() {
		t.Fatal("design round trip changed the netlist")
	}
	run := func(d *Design) *Result {
		t.Helper()
		res, err := Run(context.Background(), d, testOptions(WithMode(PowerAware))...)
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics.RuntimeSec = 0
		return res
	}
	ra, rb := run(design), run(&back)
	ja, _ := ra.JSON()
	jb, _ := rb.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatal("decoded design floorplans differently from the original")
	}
}

// TestOptionValidation checks bad options fail at NewFlow, not at Run.
func TestOptionValidation(t *testing.T) {
	design := MustBenchmark("n100")
	if _, err := NewFlow(design, WithMode("hyper-aware")); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := NewFlow(design, WithMode("")); err == nil {
		t.Fatal("empty mode accepted (would mislabel results)")
	}
	if _, err := NewFlow(design, WithIterations(-1)); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := NewFlow(nil); err == nil {
		t.Fatal("nil design accepted")
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestProtectedModulesRange checks NewFlow rejects a protected-module index
// outside the design, naming it, instead of silently watching no bins.
func TestProtectedModulesRange(t *testing.T) {
	design := MustBenchmark("n100")
	n := design.NumModules()
	for _, tc := range []struct {
		modules []int
		want    string // error substring naming the bad index; "" = accepted
	}{
		{[]int{0, -1}, "index -1 "},
		{[]int{n}, fmt.Sprintf("index %d ", n)},
		{[]int{0, n - 1}, ""},
	} {
		_, err := NewFlow(design, WithProtectedModules(tc.modules...))
		if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("protected modules %v: NewFlow returned %v, want error %q", tc.modules, err, tc.want)
		}
	}
}

// TestNewFlowRejectsUnrunnableDesigns checks that a design the flow cannot
// floorplan fails at NewFlow with the reason, not in Run: zero modules
// pass Design.Validate but used to panic in the first perturbation, and a
// single die failed only once the run started.
func TestNewFlowRejectsUnrunnableDesigns(t *testing.T) {
	const mod = `{"name": "a", "kind": "hard", "w_um": 10, "h_um": 10, "power_w": 1}`
	for _, tc := range []struct {
		design string
		want   string // error substring; "" = accepted
	}{
		{`{"name": "empty", "dies": 2, "outline_w_um": 100, "outline_h_um": 100}`, "no modules"},
		{`{"name": "flat", "dies": 1, "outline_w_um": 100, "outline_h_um": 100, "modules": [` + mod + `]}`, "1 die(s)"},
		{`{"name": "solo", "dies": 2, "outline_w_um": 100, "outline_h_um": 100, "modules": [` + mod + `]}`, ""},
	} {
		design := new(Design)
		if err := json.Unmarshal([]byte(tc.design), design); err != nil {
			t.Fatalf("%s: %v", tc.design, err)
		}
		_, err := NewFlow(design)
		if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewFlow returned %v, want error %q", design.Name(), err, tc.want)
		}
	}
}

// TestProgressEvents checks the stages arrive in flow order and the anneal
// counter is monotone.
func TestProgressEvents(t *testing.T) {
	design := MustBenchmark("n100")
	var stages []Stage
	lastDone := -1
	_, err := Run(context.Background(), design, testOptions(
		WithMode(TSCAware),
		WithProgress(func(ev Event) {
			if len(stages) == 0 || stages[len(stages)-1] != ev.Stage {
				stages = append(stages, ev.Stage)
			}
			if ev.Stage == StageAnneal {
				if ev.Done < lastDone {
					t.Errorf("anneal progress went backwards: %d after %d", ev.Done, lastDone)
				}
				lastDone = ev.Done
			}
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageAnneal, StageFinalize, StageSampling, StagePostProcess, StageDone}
	if len(stages) != len(want) {
		t.Fatalf("stages %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages %v, want %v", stages, want)
		}
	}
}

// TestPostProcessDefaultByMode checks the tri-state replacement: dummy TSVs
// appear by default only in TSC mode, and WithPostProcess overrides both
// defaults.
func TestPostProcessDefaultByMode(t *testing.T) {
	design := MustBenchmark("n100")
	run := func(opts ...Option) *Result {
		t.Helper()
		res, err := Run(context.Background(), design, testOptions(opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(WithMode(PowerAware)); res.Metrics.DummyTSVs != 0 {
		t.Fatalf("PA default ran post-processing (%d dummy TSVs)", res.Metrics.DummyTSVs)
	}
	if res := run(WithMode(PowerAware), WithPostProcess(true)); res.Metrics.SVF1 == 0 {
		t.Fatal("WithPostProcess(true) did not run the sampling stage in PA mode")
	}
	if res := run(WithMode(TSCAware), WithPostProcess(false)); res.Metrics.DummyTSVs != 0 {
		t.Fatalf("WithPostProcess(false) still inserted %d dummy TSVs", res.Metrics.DummyTSVs)
	}
}
