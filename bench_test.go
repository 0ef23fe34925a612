// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark prints the rows/series the paper
// reports; run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Environment knobs (defaults hold the full sweep under ~15 min on a
// laptop; raise them to approach the paper's 50-run averages):
//
//	REPRO_BENCH_ITERS    SA iterations per floorplanning run (default 800)
//	REPRO_BENCH_SAMPLES  activity samples for Eq. 2 (default 30; paper 100)
//	REPRO_BENCH_RUNS     independent runs per (benchmark, mode) (default 1; paper 50)
//	REPRO_BENCH_SET      comma-separated benchmark subset (default all six)
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/activity"
	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/noiseinject"
	"repro/internal/thermal"
	"repro/internal/tsv"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchIters() int   { return envInt("REPRO_BENCH_ITERS", 800) }
func benchSamples() int { return envInt("REPRO_BENCH_SAMPLES", 30) }
func benchRuns() int    { return envInt("REPRO_BENCH_RUNS", 1) }

func benchSet() []string {
	if v := os.Getenv("REPRO_BENCH_SET"); v != "" {
		return strings.Split(v, ",")
	}
	return []string{"n100", "n200", "n300", "ibm01", "ibm03", "ibm07"}
}

// --- E3: Table 1 — benchmark properties --------------------------------------

func BenchmarkTable1Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nTable 1: benchmark properties (generated)\n")
		fmt.Printf("%-8s %9s %6s %7s %7s %10s %10s\n",
			"name", "mods(h/s)", "scale", "nets", "pins", "mm^2/die", "power[W]")
		for _, spec := range bench.Table1() {
			d, err := bench.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("%-8s %4d/%-4d %6.0f %7d %7d %10.2f %10.2f\n",
				d.Name, d.HardCount(), d.SoftCount(), spec.ScaleFactor,
				len(d.Nets), len(d.Terminals), d.OutlineW*d.OutlineH/1e6, d.TotalPower())
		}
	}
}

// --- E1: Figure 1 — time scales of power vs temperature ----------------------

func BenchmarkFigure1TimeScales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const n = 16
		cfg := thermal.DefaultConfig(n, n, 4000, 4000, 2)
		stack := thermal.NewStack(cfg)
		p := geom.NewGrid(n, n)
		p.Fill(10.0 / (n * n))
		stack.SetDiePower(0, p)
		steady, _ := stack.SolveSteady(nil, thermal.SolverOpts{})
		rise := steady.Peak() - cfg.Ambient

		traj := stack.SolveTransient(nil, 1e-3, 400, 1, nil)
		tau := math.NaN()
		for k, sol := range traj {
			if sol.Peak()-cfg.Ambient >= 0.63*rise {
				tau = float64(k+1) * 1e-3
				break
			}
		}
		base := traj[len(traj)-1]
		tog := stack.SolveTransient(base, 1e-4, 200, 1, func(s int) float64 {
			if s%2 == 0 {
				return 2
			}
			return 0
		})
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, sol := range tog[20:] {
			pk := sol.Peak()
			lo = math.Min(lo, pk)
			hi = math.Max(hi, pk)
		}
		fmt.Printf("\nFigure 1: thermal tau=%.0f ms vs activity period 0.2 ms; "+
			"ripple %.3f K = %.1f%% of %.1f K steady rise\n",
			tau*1e3, hi-lo, 100*(hi-lo)/rise, rise)
		b.ReportMetric(tau*1e3, "tau_ms")
		b.ReportMetric(100*(hi-lo)/rise, "ripple_%")
	}
}

// --- E2: Figure 2 / Sec. 3 — power x TSV exploration --------------------------

func BenchmarkFigure2Exploration(b *testing.B) {
	const n, die = 32, 4000.0
	const seeds = 3
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nFigure 2: bottom-die correlation, averaged over %d seeds\n", seeds)
		fmt.Printf("%-20s", "power \\ TSV")
		for _, tp := range tsv.AllPatterns() {
			fmt.Printf(" %18s", tp)
		}
		fmt.Println()
		avgByTSV := map[tsv.Pattern]float64{}
		for _, pp := range activity.AllPowerPatterns() {
			fmt.Printf("%-20s", pp)
			for _, tp := range tsv.AllPatterns() {
				sum := 0.0
				for s := int64(0); s < seeds; s++ {
					rng := rand.New(rand.NewSource(100 + s))
					p0 := activity.GeneratePowerMap(pp, n, n, 4, rng)
					p1 := activity.GeneratePowerMap(pp, n, n, 4, rng)
					plan := tsv.GeneratePattern(tp, die, die, rng)
					stack := thermal.NewStack(thermal.DefaultConfig(n, n, die, die, 2))
					stack.SetDiePower(0, p0)
					stack.SetDiePower(1, p1)
					if len(plan.TSVs) > 0 {
						stack.SetTSVMap(plan.CuFractionMap(n, n))
					}
					sol, _ := stack.SolveSteady(nil, thermal.SolverOpts{})
					sum += leakage.Pearson(p0, sol.DieTemp(0))
				}
				r := sum / seeds
				fmt.Printf(" %18.3f", r)
				if pp != activity.GloballyUniform {
					avgByTSV[tp] += r / float64(len(activity.AllPowerPatterns())-1)
				}
			}
			fmt.Println()
		}
		fmt.Printf("%-20s", "avg (non-uniform)")
		for _, tp := range tsv.AllPatterns() {
			fmt.Printf(" %18.3f", avgByTSV[tp])
		}
		fmt.Println()
	}
}

// --- shared Table 2 runs ------------------------------------------------------

type runKey struct {
	bench string
	mode  core.Mode
	seed  int64
}

var (
	runCacheMu sync.Mutex
	runCache   = map[runKey]*core.Result{}
)

func cachedRun(b *testing.B, name string, mode core.Mode, seed int64) *core.Result {
	b.Helper()
	key := runKey{name, mode, seed}
	runCacheMu.Lock()
	defer runCacheMu.Unlock()
	if r, ok := runCache[key]; ok {
		return r
	}
	des := bench.MustGenerate(name)
	// Annealing budget scales with design size: a fixed iteration count
	// that explores n100 well leaves the 1000+-module IBM designs nearly
	// random, which would drown the PA-vs-TSC deltas in packing noise.
	iters := benchIters()
	if scaled := 3 * len(des.Modules); scaled > iters {
		iters = scaled
	}
	res, err := core.Run(des, core.Config{
		Mode:            mode,
		SAIterations:    iters,
		ActivitySamples: benchSamples(),
		Seed:            seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	runCache[key] = res
	return res
}

type avgMetrics struct {
	core.Metrics
	n int
}

func (a *avgMetrics) add(m core.Metrics) {
	a.S1 += m.S1
	a.S2 += m.S2
	a.R1 += m.R1
	a.R2 += m.R2
	a.PowerW += m.PowerW
	a.CriticalNS += m.CriticalNS
	a.WirelengthM += m.WirelengthM
	a.PeakTempK += m.PeakTempK
	a.SignalTSVs += m.SignalTSVs
	a.DummyTSVs += m.DummyTSVs
	a.VoltageVolumes += m.VoltageVolumes
	a.RuntimeSec += m.RuntimeSec
	a.n++
}

func (a *avgMetrics) avg() core.Metrics {
	m := a.Metrics
	n := float64(a.n)
	m.S1 /= n
	m.S2 /= n
	m.R1 /= n
	m.R2 /= n
	m.PowerW /= n
	m.CriticalNS /= n
	m.WirelengthM /= n
	m.PeakTempK /= n
	m.RuntimeSec /= n
	return m
}

func averaged(b *testing.B, name string, mode core.Mode) core.Metrics {
	var a avgMetrics
	for k := 0; k < benchRuns(); k++ {
		a.add(cachedRun(b, name, mode, int64(1+k)).Metrics)
	}
	m := a.avg()
	// Integer columns: averaged over runs.
	m.SignalTSVs = a.SignalTSVs / a.n
	m.DummyTSVs = a.DummyTSVs / a.n
	m.VoltageVolumes = a.VoltageVolumes / a.n
	return m
}

// --- E5: Figure 5 + Table 2 (top) — leakage metrics PA vs TSC -----------------

func BenchmarkTable2Leakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nTable 2 (top): leakage metrics, %d run(s), %d SA iters, %d activity samples\n",
			benchRuns(), benchIters(), benchSamples())
		fmt.Printf("%-8s | %8s %8s %8s %8s | %8s %8s %8s %8s | %8s\n",
			"bench", "PA S1", "PA r1", "PA S2", "PA r2", "TSC S1", "TSC r1", "TSC S2", "TSC r2", "dr1 %")
		var paR1, tscR1 float64
		cnt := 0
		for _, name := range benchSet() {
			pa := averaged(b, name, core.PowerAware)
			ts := averaged(b, name, core.TSCAware)
			drop := 100 * (pa.R1 - ts.R1) / math.Abs(pa.R1)
			fmt.Printf("%-8s | %8.3f %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f %8.3f | %8.2f\n",
				name, pa.S1, pa.R1, pa.S2, pa.R2, ts.S1, ts.R1, ts.S2, ts.R2, drop)
			paR1 += pa.R1
			tscR1 += ts.R1
			cnt++
		}
		avgDrop := 100 * (paR1 - tscR1) / math.Abs(paR1)
		fmt.Printf("average r1 reduction TSC vs PA: %.2f%% (paper: 7.71%%)\n", avgDrop)
		b.ReportMetric(avgDrop, "r1_drop_%")
	}
}

// --- E6: Table 2 (bottom) — design cost PA vs TSC -----------------------------

func BenchmarkTable2DesignCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nTable 2 (bottom): design cost, %d run(s) per cell\n", benchRuns())
		fmt.Printf("%-8s | %9s %9s %9s %9s %6s %6s %5s %7s | mode\n",
			"bench", "power[W]", "delay[ns]", "wl[m]", "peak[K]", "sTSV", "dTSV", "vol", "time[s]")
		type agg struct {
			pow, delay, wl, peak, time float64
			vol                        int
			n                          int
		}
		sum := map[core.Mode]*agg{core.PowerAware: {}, core.TSCAware: {}}
		for _, name := range benchSet() {
			for _, mode := range []core.Mode{core.PowerAware, core.TSCAware} {
				m := averaged(b, name, mode)
				tag := "PA"
				if mode == core.TSCAware {
					tag = "TSC"
				}
				fmt.Printf("%-8s | %9.3f %9.3f %9.3f %9.2f %6d %6d %5d %7.1f | %s\n",
					name, m.PowerW, m.CriticalNS, m.WirelengthM, m.PeakTempK,
					m.SignalTSVs, m.DummyTSVs, m.VoltageVolumes, m.RuntimeSec, tag)
				s := sum[mode]
				s.pow += m.PowerW
				s.delay += m.CriticalNS
				s.wl += m.WirelengthM
				s.peak += m.PeakTempK - 293
				s.time += m.RuntimeSec
				s.vol += m.VoltageVolumes
				s.n++
			}
		}
		pa, ts := sum[core.PowerAware], sum[core.TSCAware]
		fmt.Printf("deltas TSC vs PA: power %+.2f%% (paper +5.38%%), delay %+.2f%% (paper +10.33%%), "+
			"wl %+.2f%% (paper +1.08%%), peak-over-ambient %+.2f%% (paper -13.22%%), "+
			"volumes %+.2f%% (paper +87.17%%), runtime x%.2f (paper x2.5)\n",
			100*(ts.pow-pa.pow)/pa.pow, 100*(ts.delay-pa.delay)/pa.delay,
			100*(ts.wl-pa.wl)/pa.wl, 100*(ts.peak-pa.peak)/pa.peak,
			100*float64(ts.vol-pa.vol)/float64(pa.vol), ts.time/pa.time)
	}
}

// --- E4: Figure 4 / Sec. 7.1 — dummy-TSV post-processing ----------------------

func BenchmarkFigure4PostProcessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := cachedRun(b, "n100", core.TSCAware, 1)
		m := res.Metrics
		drop := 0.0
		if m.PostCorrelationBefore > 0 {
			drop = 100 * (m.PostCorrelationBefore - m.PostCorrelationAfter) / m.PostCorrelationBefore
		}
		fmt.Printf("\nFigure 4: n100 dummy-TSV post-processing: r1 %.3f -> %.3f (-%.1f%%; paper 0.461 -> 0.324, -29.7%%), %d dummy vias in %d-via groups\n",
			m.PostCorrelationBefore, m.PostCorrelationAfter, drop, m.DummyTSVs, 8)
		b.ReportMetric(drop, "r1_drop_%")
		b.ReportMetric(float64(m.DummyTSVs), "dummy_vias")
	}
}

// --- Extension: monolithic 3D flavour (paper footnote 1 / future work) --------

// BenchmarkMonolithicFlavor contrasts the TSV-based stack with monolithic
// integration: the thin ILD couples tiers near-isothermally, so each tier's
// map blends both tiers' power patterns and the per-tier correlation
// changes "considerably", as the paper's footnote predicts.
func BenchmarkMonolithicFlavor(b *testing.B) {
	const n, die = 32, 4000.0
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nMonolithic vs TSV-based flavour: bottom-die/tier correlation\n")
		fmt.Printf("%-20s %12s %12s %12s\n", "power pattern", "TSV-based", "monolithic", "delta")
		for _, pp := range activity.AllPowerPatterns() {
			if pp == activity.GloballyUniform {
				continue
			}
			rng := rand.New(rand.NewSource(42))
			p0 := activity.GeneratePowerMap(pp, n, n, 4, rng)
			p1 := activity.GeneratePowerMap(pp, n, n, 4, rng)
			eval := func(cfg thermal.Config) float64 {
				s := thermal.NewStack(cfg)
				s.SetDiePower(0, p0)
				s.SetDiePower(1, p1)
				sol, _ := s.SolveSteady(nil, thermal.SolverOpts{})
				return leakage.Pearson(p0, sol.DieTemp(0))
			}
			tsvR := eval(thermal.DefaultConfig(n, n, die, die, 2))
			monoR := eval(thermal.MonolithicConfig(n, n, die, die, 2))
			fmt.Printf("%-20s %12.3f %12.3f %12.3f\n", pp, tsvR, monoR, monoR-tsvR)
		}
	}
}

// --- Prior art: noise injection (Gu et al.), the paper's Sec.-1 critique ------

// BenchmarkPriorArtNoiseInjection reproduces the paper's argument against
// runtime thermal-noise injection: meaningful mitigation requires injection
// rates whose power cost dwarfs the TSC-aware floorplan's few percent.
func BenchmarkPriorArtNoiseInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pa := cachedRun(b, "n100", core.PowerAware, 1)
		ts := cachedRun(b, "n100", core.TSCAware, 1)
		ctl := noiseinject.Controller{}
		alphas := []float64{0, 0.1, 0.25, 0.5, 1.0}
		fmt.Printf("\nPrior art (noise injection on the PA floorplan) vs TSC-aware floorplanning:\n")
		fmt.Printf("%-28s %8s %10s %10s\n", "countermeasure", "r1", "power[W]", "peak[K]")
		basePower := pa.Metrics.PowerW
		for _, r := range ctl.Sweep(pa, alphas) {
			fmt.Printf("inject alpha=%-17.2f %8.3f %10.3f %10.2f\n",
				r.Alpha, math.Abs(r.R[0]), basePower+r.InjectedW, r.PeakTempK)
		}
		fmt.Printf("%-28s %8.3f %10.3f %10.2f\n",
			"TSC-aware floorplan", math.Abs(ts.Metrics.R1), ts.Metrics.PowerW, ts.Metrics.PeakTempK)
		fmt.Printf("(paper: injection only mitigates at the highest rates; our flow pays %.1f%% power)\n",
			100*(ts.Metrics.PowerW-basePower)/basePower)
	}
}

// --- Ablations: isolate the contribution of each design choice ---------------

// BenchmarkAblationDesignRule reproduces the paper's Sec. 7.2 observation:
// relaxing Corblivar's thermal design rule (high-power modules toward the
// heatsink-side die) "prohibitively increases the peak temperatures".
func BenchmarkAblationDesignRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		des := bench.MustGenerate("n100")
		run := func(ruleWeight float64) core.Metrics {
			w := core.DefaultWeights(core.TSCAware)
			w.DesignRule = ruleWeight
			res, err := core.Run(des, core.Config{
				Mode: core.TSCAware, SAIterations: benchIters(),
				ActivitySamples: benchSamples(), Seed: 1, Weights: &w,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Metrics
		}
		with := run(0.5)
		without := run(0)
		fmt.Printf("\nAblation (design rule, n100 TSC): with rule peak %.2f K r2 %.3f | relaxed peak %.2f K r2 %.3f\n",
			with.PeakTempK, with.R2, without.PeakTempK, without.R2)
		b.ReportMetric(without.PeakTempK-with.PeakTempK, "peak_delta_K")
	}
}

// BenchmarkAblationLeakageTerms isolates the SA leakage objective from the
// dummy-TSV stage: TSC weights with the correlation/entropy terms zeroed
// degenerate to power-aware search plus post-processing.
func BenchmarkAblationLeakageTerms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		des := bench.MustGenerate("n100")
		run := func(leak bool) core.Metrics {
			w := core.DefaultWeights(core.TSCAware)
			if !leak {
				w.Correlation, w.SpatialEntropy = 0, 0
			}
			res, err := core.Run(des, core.Config{
				Mode: core.TSCAware, SAIterations: benchIters(),
				ActivitySamples: benchSamples(), Seed: 1, Weights: &w,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Metrics
		}
		full := run(true)
		noLeak := run(false)
		fmt.Printf("\nAblation (SA leakage terms, n100 TSC): full r1 %.3f | post-processing only r1 %.3f\n",
			full.R1, noLeak.R1)
		b.ReportMetric(noLeak.R1-full.R1, "r1_delta")
	}
}

// BenchmarkAblationPostProcessing isolates the dummy-TSV stage.
func BenchmarkAblationPostProcessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		des := bench.MustGenerate("n100")
		run := func(post bool) core.Metrics {
			res, err := core.Run(des, core.Config{
				Mode: core.TSCAware, SAIterations: benchIters(),
				ActivitySamples: benchSamples(), Seed: 1, PostProcess: &post,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Metrics
		}
		with := run(true)
		without := run(false)
		fmt.Printf("\nAblation (dummy TSVs, n100 TSC): with r1 %.3f (%d vias) | without r1 %.3f\n",
			with.R1, with.DummyTSVs, without.R1)
		b.ReportMetric(without.R1-with.R1, "r1_delta")
	}
}

// --- E7: Sec. 5 attacks — localization PA vs TSC ------------------------------

func BenchmarkAttackLocalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nSec. 5 attacks on n100 (8 hottest modules):\n")
		sensors := attack.DefaultSensors()
		var paErr, tscErr float64
		for _, mode := range []core.Mode{core.PowerAware, core.TSCAware} {
			res := cachedRun(b, "n100", mode, 1)
			order := make([]int, len(res.Design.Modules))
			for k := range order {
				order[k] = k
			}
			sort.Slice(order, func(x, y int) bool {
				return res.Design.Modules[order[x]].Power > res.Design.Modules[order[y]].Power
			})
			dev := attack.NewDevice(res, sensors, 1)
			st := attack.LocalizeAll(dev, order[:8], attack.LocalizeOptions{})
			rng := rand.New(rand.NewSource(2))
			ch := attack.Characterize(dev, order[:8], 4, rng)
			fmt.Printf("  %-12s hit %.2f  die %.2f  err %6.0f um  charR2 %.3f\n",
				mode, st.HitRate, st.DieRate, st.MeanError, ch.R2)
			if mode == core.PowerAware {
				paErr = st.MeanError
			} else {
				tscErr = st.MeanError
			}
			dev.Reset()
		}
		b.ReportMetric(tscErr-paErr, "err_delta_um")
	}
}
