// Integration tests: end-to-end flows across modules, at reduced scale so
// `go test ./...` stays fast. The per-module unit tests live next to their
// packages; these verify the seams.
package repro

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/noiseinject"
	"repro/internal/thermal"
	"repro/internal/timing"
	"repro/internal/tsv"
)

var (
	integOnce sync.Once
	integRes  map[core.Mode]*core.Result
)

// integResults floorplans n100 once per mode at test scale.
func integResults(t *testing.T) map[core.Mode]*core.Result {
	t.Helper()
	integOnce.Do(func() {
		integRes = map[core.Mode]*core.Result{}
		des := bench.MustGenerate("n100")
		for _, mode := range []core.Mode{core.PowerAware, core.TSCAware} {
			res, err := core.Run(des, core.Config{
				Mode: mode, GridN: 16, SAIterations: 200,
				ActivitySamples: 10, Seed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			integRes[mode] = res
		}
	})
	return integRes
}

// TestFlowProducesConsistentArtifacts checks that every artifact of a run
// agrees with every other: layout vs TSV plan vs assignment vs maps.
func TestFlowProducesConsistentArtifacts(t *testing.T) {
	for mode, res := range integResults(t) {
		// Every cross-die net has at least one signal TSV entry.
		crossNets := res.Layout.CrossDieNets()
		nets := map[int]bool{}
		for _, v := range res.TSVs.TSVs {
			if v.Kind == tsv.Signal {
				nets[v.Net] = true
			}
		}
		for _, ni := range crossNets {
			if !nets[ni] {
				t.Fatalf("%v: cross-die net %d has no TSV", mode, ni)
			}
		}
		// Power maps match the assignment-scaled module powers. Power
		// rasterized outside the fixed outline is clipped, so exact
		// conservation holds only for legal layouts; illegal ones can only
		// underreport.
		total := 0.0
		for mi, m := range res.Design.Modules {
			total += m.Power * res.Assignment.PowerScale[mi]
		}
		mapped := res.PowerMaps[0].Sum() + res.PowerMaps[1].Sum()
		if res.Layout.Legal() {
			if math.Abs(mapped-total) > 1e-6*total {
				t.Fatalf("%v: maps carry %v W, assignment says %v W", mode, mapped, total)
			}
		} else if mapped > total+1e-6*total {
			t.Fatalf("%v: maps carry more power (%v) than assigned (%v)", mode, mapped, total)
		}
		// Metrics aliases agree with PerDie.
		if res.Metrics.R1 != res.Metrics.PerDie[0].R {
			t.Fatalf("%v: R1 alias out of sync", mode)
		}
	}
}

// TestFlowMetricsMatchIndependentRecomputation recomputes r and S from the
// result's own maps and compares with the reported metrics.
func TestFlowMetricsMatchIndependentRecomputation(t *testing.T) {
	res := integResults(t)[core.TSCAware]
	r1 := leakage.Pearson(res.PowerMaps[0], res.TempMaps[0])
	if math.Abs(r1-res.Metrics.R1) > 1e-9 {
		t.Fatalf("r1 %v vs reported %v", r1, res.Metrics.R1)
	}
	s1 := leakage.SpatialEntropy(res.PowerMaps[0])
	if math.Abs(s1-res.Metrics.S1) > 1e-9 {
		t.Fatalf("S1 %v vs reported %v", s1, res.Metrics.S1)
	}
}

// TestFlowTimingHonoured re-runs STA with the assignment's delay scales and
// checks the repaired critical delay is reported faithfully.
func TestFlowTimingHonoured(t *testing.T) {
	res := integResults(t)[core.PowerAware]
	sta := timing.Analyze(res.Layout, res.Assignment.DelayScale, timing.DefaultParams())
	if math.Abs(sta.Critical-res.Metrics.CriticalNS) > 1e-9 {
		t.Fatalf("critical %v vs reported %v", sta.Critical, res.Metrics.CriticalNS)
	}
}

// TestFlowVoltageVolumesPartition checks the assignment is a partition and
// its power bookkeeping matches.
func TestFlowVoltageVolumesPartition(t *testing.T) {
	res := integResults(t)[core.TSCAware]
	seen := make([]bool, len(res.Design.Modules))
	for _, v := range res.Assignment.Volumes {
		for _, m := range v.Modules {
			if seen[m] {
				t.Fatalf("module %d in two volumes", m)
			}
			seen[m] = true
		}
	}
	for m, ok := range seen {
		if !ok {
			t.Fatalf("module %d unassigned", m)
		}
	}
	if math.Abs(res.Assignment.TotalPower-res.Metrics.PowerW) > 1e-9 {
		t.Fatal("power bookkeeping mismatch")
	}
}

// TestAttackPipelineOnFlowResult mounts every attack on a flow result.
func TestAttackPipelineOnFlowResult(t *testing.T) {
	res := integResults(t)[core.PowerAware]
	dev := attack.NewDevice(res, attack.Sensors{N: 8, NoiseK: 0.02}, 1)
	st := attack.LocalizeAll(dev, []int{0, 1}, attack.LocalizeOptions{})
	if len(st.Results) != 2 {
		t.Fatal("localization results")
	}
	ch := attack.Characterize(dev, []int{0, 1}, 3, rand.New(rand.NewSource(2)))
	if ch.R2 < 0 || ch.R2 > 1 {
		t.Fatalf("R2 %v", ch.R2)
	}
	inv := attack.InvertDevice(dev, attack.InversionOptions{Iterations: 60})
	if math.IsNaN(inv.MeanFidelity()) {
		t.Fatal("inversion not scored")
	}
	dev.Reset()
}

// TestNoiseInjectionOnFlowResult checks the prior-art baseline integrates.
func TestNoiseInjectionOnFlowResult(t *testing.T) {
	res := integResults(t)[core.PowerAware]
	rs := noiseinject.Controller{}.Sweep(res, []float64{0, 0.5})
	if rs[1].PeakTempK <= rs[0].PeakTempK {
		t.Fatal("injection must heat the stack")
	}
}

// TestThreeDieGapIsolation verifies per-gap TSV maps act on the right
// interfaces: copper in gap 1 must improve die1<->die2 coupling but leave
// die0's peak essentially unchanged relative to copper in gap 0.
func TestThreeDieGapIsolation(t *testing.T) {
	const n = 16
	mk := func(gap int) float64 {
		cfg := thermal.DefaultConfig(n, n, 4000, 4000, 3)
		s := thermal.NewStack(cfg)
		pw := geom.NewGrid(n, n)
		pw.Fill(8.0 / float64(n*n))
		s.SetDiePower(0, pw)
		cu := geom.NewGrid(n, n)
		cu.Fill(0.3)
		s.SetTSVGapMap(gap, cu)
		sol, _ := s.SolveSteady(nil, thermal.SolverOpts{})
		return sol.DieTemp(0).Max()
	}
	peakGap0 := mk(0)
	peakGap1 := mk(1)
	// Heat is injected into die 0; opening gap 0 shortens its path to the
	// sink much more than opening gap 1 (which only helps beyond die 1).
	if peakGap0 >= peakGap1 {
		t.Fatalf("gap-0 TSVs should cool die 0 more: %v vs %v", peakGap0, peakGap1)
	}
}
