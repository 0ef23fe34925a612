// Command tscfp floorplans one of the paper's benchmarks in power-aware or
// TSC-aware mode and prints a Table-2-style report: leakage metrics (S1, S2,
// r1, r2) and design cost (power, critical delay, wirelength, peak
// temperature, TSV and voltage-volume counts, runtime). Multiple runs fan
// out over the tscfp.Sweep worker pool.
//
// Usage:
//
//	tscfp -bench n100 -mode tsc -runs 3 -iters 3000
//	tscfp -bench ibm01 -mode pa -runs 8 -workers 4
//	tscfp -bench ibm01 -iters 300 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"repro/internal/version"
	"repro/tscfp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tscfp: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	var (
		benchName   = flag.String("bench", "n100", "benchmark name (n100 n200 n300 ibm01 ibm03 ibm07)")
		mode        = flag.String("mode", "tsc", "floorplanning mode: pa (power-aware) or tsc (TSC-aware)")
		runs        = flag.Int("runs", 1, "independent floorplanning runs to average")
		workers     = flag.Int("workers", 1, "concurrent runs (0 = one per CPU)")
		iters       = flag.Int("iters", 3000, "simulated-annealing iterations per run")
		grid        = flag.Int("grid", 32, "thermal/leakage grid resolution per axis")
		samples     = flag.Int("samples", 100, "activity samples for correlation stability (Eq. 2)")
		seed        = flag.Int64("seed", 1, "base random seed (run k uses seed+k)")
		jsonOut     = flag.String("json", "", "write the last run's full result to this JSON file")
		maps        = flag.Bool("maps", false, "print ASCII heatmaps of the last run's power/thermal maps")
		showFP      = flag.Bool("floorplan", false, "print an ASCII rendering of the last run's floorplan")
		protect     = flag.Bool("protect", false, "post-process only the sensitive modules (Sec. 7.1 adaptation)")
		par         = flag.Int("parallelism", 0, "thermal solver/estimator worker goroutines per run (0 = one per CPU, 1 = serial; results identical)")
		replicas    = flag.Int("replicas", 1, "tempered annealing chains per run (replica exchange; >= 2 is a different deterministic walk than serial)")
		speculate   = flag.Int("speculate", 1, "candidate moves evaluated concurrently per annealing step (>= 2 is a different deterministic walk than serial)")
		churnStats  = flag.Bool("churn-stats", false, "print a per-run summary of the exact-diff repack churn counters")
		checkCost   = flag.Bool("check-cost", false, "cross-check every incremental cost (and entropy patch) against a full recompute (debug; very slow)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("tscfp " + version.String())
		return nil
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	design, err := tscfp.Benchmark(*benchName)
	if err != nil {
		return err
	}
	m, err := tscfp.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1, got %d", *runs)
	}

	ow, oh := design.Outline()
	fmt.Printf("benchmark %s: %d modules (%d hard / %d soft), %d nets, %d terminals, %.2f mm^2/die, %.2f W @1.0V\n",
		design.Name(), design.NumModules(), design.HardModules(), design.SoftModules(),
		design.NumNets(), design.NumTerminals(), ow*oh/1e6, design.TotalPower())
	fmt.Printf("mode %s, %d run(s), %d SA iterations, %dx%d grid\n", m, *runs, *iters, *grid, *grid)
	if *replicas > 1 || *speculate > 1 {
		fmt.Printf("parallel anneal: %d replica(s), speculation width %d\n", *replicas, *speculate)
	}
	fmt.Println()

	opts := []tscfp.Option{
		tscfp.WithGridN(*grid),
		tscfp.WithIterations(*iters),
		tscfp.WithActivitySamples(*samples),
		tscfp.WithParallelism(*par),
		tscfp.WithReplicas(*replicas),
		tscfp.WithSpeculation(*speculate),
		tscfp.WithCostCrossCheck(*checkCost),
	}
	if *protect {
		sensitive := design.SensitiveModules()
		fmt.Printf("protecting %d sensitive modules\n", len(sensitive))
		opts = append(opts, tscfp.WithProtectedModules(sensitive...))
	}

	seeds := make([]int64, *runs)
	for k := range seeds {
		seeds[k] = *seed + int64(k)
	}
	// Stream prints each run as it completes instead of buffering the
	// whole campaign; -json/-maps/-floorplan refer to the last grid cell.
	results, err := tscfp.Stream(ctx, tscfp.Grid{
		Design:  design,
		Seeds:   seeds,
		Modes:   []tscfp.Mode{m},
		Options: opts,
	}, tscfp.WithWorkers(*workers))
	if err != nil {
		return err
	}

	var agg tscfp.Metrics
	var last *tscfp.Result
	lastIndex := -1
	for sr := range results {
		if sr.Err != nil {
			return sr.Err
		}
		if sr.Cell.Index > lastIndex {
			last, lastIndex = sr.Result, sr.Cell.Index
		}
		mm := sr.Result.Metrics
		fmt.Printf("run %d: S1=%.3f S2=%.3f r1=%.3f r2=%.3f power=%.3fW delay=%.3fns wl=%.3fm peak=%.2fK sTSV=%d dTSV=%d vol=%d legal=%v %.1fs\n",
			sr.Cell.Index, mm.S1, mm.S2, mm.R1, mm.R2, mm.PowerW, mm.CriticalNS, mm.WirelengthM,
			mm.PeakTempK, mm.SignalTSVs, mm.DummyTSVs, mm.VoltageVolumes, sr.Result.Legal, mm.RuntimeSec)
		agg.S1 += mm.S1
		agg.S2 += mm.S2
		agg.R1 += mm.R1
		agg.R2 += mm.R2
		agg.PowerW += mm.PowerW
		agg.CriticalNS += mm.CriticalNS
		agg.WirelengthM += mm.WirelengthM
		agg.PeakTempK += mm.PeakTempK
		agg.SignalTSVs += mm.SignalTSVs
		agg.DummyTSVs += mm.DummyTSVs
		agg.VoltageVolumes += mm.VoltageVolumes
		agg.RuntimeSec += mm.RuntimeSec
		if *churnStats {
			st := &sr.Result.Core().EvalStats
			fmt.Printf("run %d churn: changed p50=%d p95=%d modules/move, %d die diffs\n",
				sr.Cell.Index, st.PackChangedPercentile(0.50), st.PackChangedPercentile(0.95), st.PackDieDiffs)
		}
	}
	n := float64(*runs)
	fmt.Printf("\naverages over %d run(s) (%s, %s):\n", *runs, design.Name(), m)
	w := func(label string, v float64) { fmt.Fprintf(os.Stdout, "  %-24s %10.3f\n", label, v) }
	w("spatial entropy S1", agg.S1/n)
	w("spatial entropy S2", agg.S2/n)
	w("correlation r1", agg.R1/n)
	w("correlation r2", agg.R2/n)
	w("overall power [W]", agg.PowerW/n)
	w("critical delay [ns]", agg.CriticalNS/n)
	w("wirelength [m]", agg.WirelengthM/n)
	w("peak temp [K]", agg.PeakTempK/n)
	w("signal TSVs", float64(agg.SignalTSVs)/n)
	w("dummy thermal TSVs", float64(agg.DummyTSVs)/n)
	w("voltage volumes", float64(agg.VoltageVolumes)/n)
	w("runtime [s]", agg.RuntimeSec/n)

	if *showFP && last != nil {
		fmt.Println()
		for d := 0; d < last.Dies; d++ {
			fmt.Print(last.FloorplanASCII(d, 64))
		}
	}
	if *maps && last != nil {
		for d := 0; d < last.Dies; d++ {
			pm, err := last.PowerHeatmap(d)
			if err != nil {
				return err
			}
			tm, err := last.TempHeatmap(d)
			if err != nil {
				return err
			}
			fmt.Printf("\ndie %d power map (TSVs overlaid):\n%s", d, pm)
			fmt.Printf("\ndie %d thermal map:\n%s", d, tm)
		}
	}
	if *jsonOut != "" && last != nil {
		if err := last.WriteJSONFile(*jsonOut); err != nil {
			return err
		}
		fmt.Printf("\nresult written to %s\n", *jsonOut)
	}
	return nil
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that ends it and writes an allocation profile into memPath; an empty path
// skips that profile. run defers stop, so the profiles are written on every
// exit path, errors included, and stop reports each failed create, write or
// close.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(fmt.Errorf("cpu profile: %w", err), cpu.Close())
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			errs = append(errs, writeAllocProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the allocation profile (the view `go test
// -memprofile` writes, alloc_space by default in `go tool pprof`) to path.
func writeAllocProfile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("mem profile: %w", cerr)
		}
	}()
	runtime.GC() // flush the allocations of the last cycle into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
