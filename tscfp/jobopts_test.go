package tscfp

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestEventJSONRoundTrip pins the Event wire schema: progress events cross
// SSE verbatim, so the JSON encoding must round-trip losslessly and keep
// its field names stable.
func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Stage: StageAnneal, Done: 120, Total: 3000, Cost: 42.5},
		{Stage: StageFinalize},
		{Stage: StageSampling, Done: 3, Total: 100},
		{Stage: StagePostProcess, Done: 1, Total: 64, Cost: -0.37},
		{Stage: StageDone},
	}
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != ev {
			t.Fatalf("round trip changed %+v into %+v (wire %s)", ev, back, data)
		}
	}

	data, _ := json.Marshal(Event{Stage: StageAnneal, Done: 1, Total: 2, Cost: 3})
	want := `{"stage":"anneal","done":1,"total":2,"cost":3}`
	if string(data) != want {
		t.Fatalf("wire schema = %s, want %s", data, want)
	}
}

// TestRunOptionsCanonical expands CLI spellings and rejects unknown ones.
func TestRunOptionsCanonical(t *testing.T) {
	c, err := RunOptions{Mode: "tsc", PostCriterion: "all-dies"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != string(TSCAware) || c.PostCriterion != string(AllDies) {
		t.Fatalf("canonical = %+v", c)
	}
	if _, err := (RunOptions{Mode: "fast"}).Canonical(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := (RunOptions{PostCriterion: "top"}).Canonical(); err == nil {
		t.Fatal("unknown criterion accepted")
	}

	// Different spellings of the same configuration canonicalize to
	// identical JSON — the property content addressing relies on.
	a, _ := RunOptions{Mode: "tsc", Seed: 7}.Canonical()
	b, _ := RunOptions{Mode: "tsc-aware", Seed: 7}.Canonical()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("canonical JSON differs: %s vs %s", aj, bj)
	}
}

// flowOf builds an n100 flow, failing the test on an option error.
func flowOf(t *testing.T, opts ...Option) *Flow {
	t.Helper()
	f, err := NewFlow(MustBenchmark("n100"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// loweredFlow builds the flow a RunOptions lowers to.
func loweredFlow(t *testing.T, o RunOptions) *Flow {
	t.Helper()
	opts, err := o.Options()
	if err != nil {
		t.Fatal(err)
	}
	return flowOf(t, opts...)
}

// TestRunOptionsZeroIsDefault: decoding `{}` configures exactly the same
// flow as passing no options at all.
func TestRunOptionsZeroIsDefault(t *testing.T) {
	var o RunOptions
	if err := json.Unmarshal([]byte(`{}`), &o); err != nil {
		t.Fatal(err)
	}
	if got, want := loweredFlow(t, o), flowOf(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero RunOptions lowered to %+v, want the no-option flow %+v", got, want)
	}
}

// TestRunOptionsEquivalentToDirectOptions runs the same tiny flow once via
// RunOptions and once via direct functional options and expects identical
// Results (the serving layer depends on this equivalence).
func TestRunOptionsEquivalentToDirectOptions(t *testing.T) {
	design := MustBenchmark("n100")
	decoded := RunOptions{
		Mode: "tsc", Seed: 42, Iterations: 80, GridN: 12,
		ActivitySamples: 2, MaxDummyGroups: 1,
	}
	opts, err := decoded.Options()
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := Run(context.Background(), design, opts...)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), design,
		WithMode(TSCAware), WithSeed(42), WithIterations(80), WithGridN(12),
		WithActivitySamples(2), WithMaxDummyGroups(1))
	if err != nil {
		t.Fatal(err)
	}
	viaJSON.Metrics.RuntimeSec, direct.Metrics.RuntimeSec = 0, 0
	a, _ := viaJSON.JSON()
	b, _ := direct.JSON()
	if string(a) != string(b) {
		t.Fatalf("RunOptions and direct options diverge (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunOptionsReplicaCanonical pins the dedupe-key behaviour of the
// parallel-anneal knobs: 1 and 0 select the same serial path and must
// canonicalize to identical JSON (so tscfpd content addresses them to the
// same artifact), explicit counts survive canonicalization, and negatives
// are rejected up front — before a dedupe key could be derived from them.
func TestRunOptionsReplicaCanonical(t *testing.T) {
	zero, err := RunOptions{Seed: 7}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunOptions{Seed: 7, Replicas: 1, Speculation: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	zj, _ := json.Marshal(zero)
	oj, _ := json.Marshal(one)
	if string(zj) != string(oj) {
		t.Fatalf("replicas=1 and replicas unset canonicalize differently: %s vs %s", oj, zj)
	}

	c, err := RunOptions{Replicas: 4, Speculation: 2}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Replicas != 4 || c.Speculation != 2 {
		t.Fatalf("explicit parallel shape not preserved: %+v", c)
	}
	got := loweredFlow(t, RunOptions{Replicas: 4, Speculation: 2})
	if want := flowOf(t, WithReplicas(4), WithSpeculation(2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica+speculation lowered to %+v, want %+v", got, want)
	}
	// Normalized-away serial spellings lower to the default flow.
	if got, want := loweredFlow(t, RunOptions{Replicas: 1, Speculation: 1}), flowOf(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("serial spellings lowered to %+v, want the default flow %+v", got, want)
	}

	if _, err := (RunOptions{Replicas: -1}).Canonical(); err == nil {
		t.Fatal("negative replica count accepted")
	}
	if _, err := (RunOptions{Speculation: -2}).Canonical(); err == nil {
		t.Fatal("negative speculation width accepted")
	}
}

// TestRunOptionsAllKnobs checks every field reaches the flow: the full
// struct builds the same flow as the equivalent With* calls, zeroing any
// single field changes the lowered config (so config maps every knob), and
// range errors surface from Options as they do from NewFlow.
func TestRunOptionsAllKnobs(t *testing.T) {
	pp := true
	par := 2
	w := DefaultWeights(TSCAware)
	full := RunOptions{
		Mode: "pa", Seed: 3, Iterations: 10, GridN: 8,
		ActivitySamples: 2, ActivitySigma: 0.2,
		PostProcess: &pp, PostCriterion: "all-dies",
		ProtectedModules: []int{0, 1}, MaxDummyGroups: 2, DummyViasPerGroup: 4,
		VoltEvery: 5, VoltTargetFactor: 1.2,
		Weights: &w, Parallelism: &par,
		Replicas: 2, Speculation: 3,
	}
	direct := flowOf(t,
		WithMode(PowerAware), WithSeed(3), WithIterations(10), WithGridN(8),
		WithActivitySamples(2), WithActivitySigma(0.2),
		WithPostProcess(true), WithPostCriterion(AllDies),
		WithProtectedModules(0, 1), WithMaxDummyGroups(2), WithDummyViasPerGroup(4),
		WithVoltEvery(5), WithVoltTargetFactor(1.2),
		WithWeights(w), WithParallelism(2),
		WithReplicas(2), WithSpeculation(3))
	if got := loweredFlow(t, full); !reflect.DeepEqual(got, direct) {
		t.Fatalf("full RunOptions lowered to %+v, want the With* flow %+v", got, direct)
	}

	canon, err := full.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := canon.config()
	v := reflect.ValueOf(canon)
	for i := 0; i < v.NumField(); i++ {
		zeroed := canon
		f := reflect.ValueOf(&zeroed).Elem().Field(i)
		f.Set(reflect.Zero(f.Type()))
		if reflect.DeepEqual(zeroed.config(), want) {
			t.Errorf("zeroing %s does not change the lowered config", v.Type().Field(i).Name)
		}
	}

	if _, err := (RunOptions{Iterations: -5}).Options(); err == nil {
		t.Fatal("negative iterations accepted by Options")
	}
	if _, err := NewFlow(MustBenchmark("n100"), WithIterations(-5)); err == nil {
		t.Fatal("negative iterations accepted by NewFlow")
	}
}

// TestRunOptionsRangeBounds: Canonical accepts grid_n 2 and activity_sigma
// at both ends of [0, 10], and rejects grid_n 1 (the thermal model panics
// below a 2x2 grid) and a sigma past either end (at 1e300 the sampled
// powers overflow the leakage metrics), naming the knob.
func TestRunOptionsRangeBounds(t *testing.T) {
	for _, o := range []RunOptions{{GridN: 2}, {ActivitySigma: 10}, {ActivitySigma: 0}} {
		if _, err := o.Canonical(); err != nil {
			t.Errorf("%+v rejected: %v", o, err)
		}
	}
	for _, tc := range []struct {
		knob string
		o    RunOptions
	}{
		{"grid_n", RunOptions{GridN: 1}},
		{"activity_sigma", RunOptions{ActivitySigma: math.Nextafter(10, 11)}},
		{"activity_sigma", RunOptions{ActivitySigma: -0.1}},
	} {
		if _, err := tc.o.Canonical(); err == nil || !strings.Contains(err.Error(), tc.knob) {
			t.Errorf("%+v: Canonical returned %v, want an error naming %s", tc.o, err, tc.knob)
		}
	}
}
