package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// fastCfg returns a configuration small enough for unit tests.
func fastCfg(mode Mode, seed int64) Config {
	return Config{
		Mode:            mode,
		GridN:           16,
		Iterations:      150,
		ActivitySamples: 12,
		MaxDummyGroups:  8,
		Seed:            seed,
	}
}

func TestRunPowerAwareN100(t *testing.T) {
	des := bench.MustGenerate("n100")
	res, err := Run(des, fastCfg(PowerAware, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Metrics.DummyTSVs != 0 {
		t.Fatal("PA mode must not insert dummy TSVs")
	}
}

func TestRunTSCAwareN100(t *testing.T) {
	des := bench.MustGenerate("n100")
	res, err := Run(des, fastCfg(TSCAware, 2))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	m := res.Metrics
	if m.PostCorrelationAfter > m.PostCorrelationBefore+1e-9 {
		t.Fatalf("post-processing must not raise correlation: %v -> %v",
			m.PostCorrelationBefore, m.PostCorrelationAfter)
	}
}

func checkResult(t *testing.T, res *Result) {
	t.Helper()
	m := res.Metrics
	if res.Layout == nil || res.TSVs == nil || res.Assignment == nil {
		t.Fatal("missing result components")
	}
	if ov := res.Layout.OverlapArea(); ov > 1e-6 {
		t.Fatalf("layout overlap %v", ov)
	}
	if m.R1 < -1 || m.R1 > 1 || m.R2 < -1 || m.R2 > 1 {
		t.Fatalf("correlations out of range: r1=%v r2=%v", m.R1, m.R2)
	}
	if m.S1 < 0 || m.S2 < 0 {
		t.Fatalf("entropies negative: S1=%v S2=%v", m.S1, m.S2)
	}
	if m.PowerW <= 0 || m.CriticalNS <= 0 || m.WirelengthM <= 0 {
		t.Fatalf("non-positive design cost: %+v", m)
	}
	if m.PeakTempK <= 293 {
		t.Fatalf("peak temperature %v must exceed ambient", m.PeakTempK)
	}
	if m.SignalTSVs <= 0 {
		t.Fatal("expected signal TSVs on a 2-die design")
	}
	if m.VoltageVolumes <= 0 {
		t.Fatal("expected voltage volumes")
	}
	if m.RuntimeSec <= 0 {
		t.Fatal("runtime not recorded")
	}
	// Maps must be consistent with the stack dimensions.
	for d := 0; d < res.Layout.Dies; d++ {
		if res.PowerMaps[d].Sum() <= 0 {
			t.Fatalf("die %d power map empty", d)
		}
		if res.TempMaps[d].Max() <= 293 {
			t.Fatalf("die %d temperature map at ambient", d)
		}
	}
}

func TestRunRejectsInvalidDesign(t *testing.T) {
	des := &netlist.Design{Name: "bad", Dies: 2}
	if _, err := Run(des, fastCfg(PowerAware, 3)); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestRunAtPowerBound runs the whole TSC flow, sampling and post-processing
// included, with every quantity Design.Validate bounds at its bound: a
// 1e6 µm outline, 1e6 µm module sides, 1e6 W and 1e6 ns per module, plus a
// soft module free to take any aspect in [1e-300, 1e300]. The correlations
// must be finite, in [-1, 1] and nonzero, and everything a tscfp Result
// carries must encode: far above the bounds the float products overflow,
// so the correlations read exactly 0, then NaN, and the critical delay,
// wirelength and peak temperature turn non-finite.
func TestRunAtPowerBound(t *testing.T) {
	des := bench.MustGenerate("n100")
	const bound = 1e6
	for _, term := range des.Terminals {
		//lint:floateq terminals sit exactly on the outline; moving the outline must move them with it
		if term.X == des.OutlineW {
			term.X = bound
		} else {
			term.X *= bound / des.OutlineW
		}
		//lint:floateq terminals sit exactly on the outline; moving the outline must move them with it
		if term.Y == des.OutlineH {
			term.Y = bound
		} else {
			term.Y *= bound / des.OutlineH
		}
	}
	des.OutlineW, des.OutlineH = bound, bound
	for _, m := range des.Modules {
		m.W, m.H, m.Power, m.IntrinsicDelay = bound, bound, bound, bound
	}
	soft := des.Modules[0]
	soft.Kind, soft.MinAspect, soft.MaxAspect = netlist.Soft, 1e-300, 1e300
	if err := des.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(TSCAware, 1)
	cfg.Iterations = 60
	cfg.GridN = 8
	cfg.ActivitySamples = 3
	cfg.MaxDummyGroups = 2
	res, err := Run(des, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{res.Metrics.R1, res.Metrics.R2} {
		if math.IsNaN(r) || r == 0 || r < -1 || r > 1 {
			t.Fatalf("correlation %v at the bounds, want finite, nonzero and in [-1, 1] (r1 %v, r2 %v)",
				r, res.Metrics.R1, res.Metrics.R2)
		}
	}
	if _, err := json.Marshal([]any{res.Metrics, res.EvalStats.RunStats, res.Layout.Rects,
		res.PowerMaps, res.TempMaps, res.TSVs.TSVs, res.Assignment.Volumes}); err != nil {
		t.Fatalf("result at the bounds does not encode: %v (metrics %+v)", err, res.Metrics)
	}
}

func TestRunRejectsSingleDie(t *testing.T) {
	des := bench.MustGenerate("n100")
	des.Dies = 1
	if _, err := Run(des, fastCfg(PowerAware, 4)); err == nil {
		t.Fatal("expected die-count error")
	}
}

// TestRunThreeDieStack exercises the paper's stated future work: taller
// stacks. The flow must place across three dies, plan TSVs per gap, and
// report per-die leakage metrics.
func TestRunThreeDieStack(t *testing.T) {
	des := bench.MustGenerate("n100")
	des.Dies = 3
	res, err := Run(des, fastCfg(TSCAware, 4))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if len(res.Metrics.PerDie) != 3 {
		t.Fatalf("per-die metrics %d, want 3", len(res.Metrics.PerDie))
	}
	// All three dies must carry modules.
	for d := 0; d < 3; d++ {
		if len(res.Layout.ModulesOnDie(d)) == 0 {
			t.Fatalf("die %d empty", d)
		}
	}
	// TSVs must exist in both gaps.
	gaps := map[int]bool{}
	for _, v := range res.TSVs.TSVs {
		gaps[v.Gap] = true
	}
	if !gaps[0] || !gaps[1] {
		t.Fatalf("TSVs missing from a gap: %v", gaps)
	}
	// Aliases follow bottom and top dies.
	if res.Metrics.R1 != res.Metrics.PerDie[0].R || res.Metrics.R2 != res.Metrics.PerDie[2].R {
		t.Fatal("aliases out of sync")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	des := bench.MustGenerate("n100")
	a, err := Run(des, fastCfg(PowerAware, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(des, fastCfg(PowerAware, 7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Metrics.R1-b.Metrics.R1) > 1e-12 ||
		a.Metrics.SignalTSVs != b.Metrics.SignalTSVs ||
		a.Metrics.VoltageVolumes != b.Metrics.VoltageVolumes {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestRunWithProtectedModules(t *testing.T) {
	des := bench.MustGenerate("n100")
	// Protect the sensitive (crypto-like) modules, as the paper's Sec. 7.1
	// adaptation suggests.
	var protect []int
	for mi, m := range des.Modules {
		if m.Sensitive {
			protect = append(protect, mi)
		}
	}
	cfg := fastCfg(TSCAware, 5)
	cfg.ProtectedModules = protect
	res, err := Run(des, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	m := res.Metrics
	if m.PostCorrelationAfter > m.PostCorrelationBefore+1e-9 {
		t.Fatalf("protected post-processing must not raise the watched correlation: %v -> %v",
			m.PostCorrelationBefore, m.PostCorrelationAfter)
	}
}

func TestRunReportsSampledMetrics(t *testing.T) {
	des := bench.MustGenerate("n100")
	res, err := Run(des, fastCfg(TSCAware, 6))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SVF1 < -1 || m.SVF1 > 1 || m.SVF2 < -1 || m.SVF2 > 1 {
		t.Fatalf("SVF out of range: %v %v", m.SVF1, m.SVF2)
	}
	if m.SVF1 == 0 && m.SVF2 == 0 {
		t.Fatal("SVF not computed in TSC mode")
	}
	if m.MeanStability1 <= 0 || m.MeanStability1 > 1 {
		t.Fatalf("mean stability 1 = %v", m.MeanStability1)
	}
	if m.MeanStability2 <= 0 || m.MeanStability2 > 1 {
		t.Fatalf("mean stability 2 = %v", m.MeanStability2)
	}
}

func TestRunAllDiesCriterion(t *testing.T) {
	des := bench.MustGenerate("n100")
	cfg := fastCfg(TSCAware, 8)
	cfg.PostCriterion = AllDies
	res, err := Run(des, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	m := res.Metrics
	if m.PostCorrelationAfter > m.PostCorrelationBefore+1e-9 {
		t.Fatalf("all-dies criterion must not raise the watched correlation: %v -> %v",
			m.PostCorrelationBefore, m.PostCorrelationAfter)
	}
}

func TestRunPostProcessDisabled(t *testing.T) {
	des := bench.MustGenerate("n100")
	cfg := fastCfg(TSCAware, 9)
	off := false
	cfg.PostProcess = &off
	res, err := Run(des, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DummyTSVs != 0 {
		t.Fatal("post-processing disabled but dummies inserted")
	}
	if res.Metrics.PostCorrelationBefore != res.Metrics.PostCorrelationAfter {
		t.Fatal("before/after must coincide when the stage is off")
	}
	// Sampled metrics are absent when the stage is off.
	if res.Metrics.SVF1 != 0 || res.Metrics.MeanStability1 != 0 {
		t.Fatal("sampled metrics should be zero without post-processing")
	}
}

func TestDefaultWeights(t *testing.T) {
	pa := DefaultWeights(PowerAware)
	if pa.Correlation != 0 || pa.SpatialEntropy != 0 {
		t.Fatal("PA weights must not include leakage terms")
	}
	tsc := DefaultWeights(TSCAware)
	if tsc.Correlation <= 0 || tsc.SpatialEntropy <= 0 {
		t.Fatal("TSC weights must include leakage terms")
	}
}

// TestPackChangedHistogram pins the churn histogram's tally and percentile
// semantics: exact bucket counts, the overflow clamp for outsized changed
// sets, and the smallest-size-covering-p percentile rule the churn reports
// are built on.
func TestPackChangedHistogram(t *testing.T) {
	var s EvalStats
	if got := s.PackChangedPercentile(0.5); got != 0 {
		t.Fatalf("empty histogram percentile = %d, want 0", got)
	}
	// 10 moves: sizes 1..8, plus 3 and one far beyond the bucket range.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 3, packHistBuckets + 100} {
		s.recordPackChanged(n)
	}
	if s.PackChangedHist[3] != 2 || s.PackChangedHist[7] != 1 {
		t.Fatalf("bucket counts wrong: hist[3]=%d hist[7]=%d", s.PackChangedHist[3], s.PackChangedHist[7])
	}
	if s.PackChangedHist[packHistBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.PackChangedHist[packHistBuckets-1])
	}
	wantTotal := 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 3 + (packHistBuckets - 1)
	if s.PackChangedModules != wantTotal {
		t.Fatalf("PackChangedModules = %d, want %d", s.PackChangedModules, wantTotal)
	}
	// 10 recorded moves, sizes sorted: 1 2 3 3 4 5 6 7 8 511.
	for _, tc := range []struct {
		p    float64
		want int
	}{{0, 0}, {0.1, 1}, {0.5, 4}, {0.9, 8}, {0.95, 511}, {1, packHistBuckets - 1}} {
		if got := s.PackChangedPercentile(tc.p); got != tc.want {
			t.Fatalf("percentile(%.2f) = %d, want %d", tc.p, got, tc.want)
		}
	}
}
