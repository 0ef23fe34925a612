// Command attacksim floorplans a benchmark in both modes and runs the
// paper's Sec. 5 thermal side-channel attacks against each result,
// quantifying the mitigation: localization hit rate and error,
// characterization R^2, and monitoring correlation, power-aware vs
// TSC-aware. The targets are the design's security-critical (sensitive)
// modules, in index order.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"

	"repro/internal/attack"
	"repro/internal/version"
	"repro/tscfp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("attacksim: ")
	defaults := attack.DefaultSensors()
	var (
		benchName   = flag.String("bench", "n100", "benchmark name")
		iters       = flag.Int("iters", 2000, "SA iterations per floorplanning run")
		grid        = flag.Int("grid", 32, "thermal grid resolution")
		sensorsN    = flag.Int("sensors", defaults.N, "thermal sensors per axis per die")
		noise       = flag.Float64("noise", defaults.NoiseK, "sensor noise sigma in K")
		targets     = flag.Int("targets", 8, "maximum number of attacked sensitive modules")
		seed        = flag.Int64("seed", 1, "random seed")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("attacksim " + version.String())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	design := tscfp.MustBenchmark(*benchName)
	sensors := attack.Sensors{N: *sensorsN, NoiseK: *noise}

	if *targets < 1 {
		log.Fatal("-targets must be at least 1")
	}
	tgt := design.SensitiveModules()
	if len(tgt) == 0 {
		log.Fatalf("%s has no sensitive modules to attack", design.Name())
	}
	if len(tgt) > *targets {
		tgt = tgt[:*targets]
	}

	type scores struct{ err, r2, corr float64 }
	var got [2]scores
	for i, mode := range []tscfp.Mode{tscfp.PowerAware, tscfp.TSCAware} {
		res, err := tscfp.Run(ctx, design,
			tscfp.WithMode(mode),
			tscfp.WithGridN(*grid),
			tscfp.WithIterations(*iters),
			tscfp.WithActivitySamples(50),
			tscfp.WithSeed(*seed))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== %s floorplan (r1=%.3f r2=%.3f) ===\n", mode, res.Metrics.R1, res.Metrics.R2)

		dev := attack.NewDevice(res.Core(), sensors, *seed)
		st := attack.LocalizeAll(dev, tgt, attack.LocalizeOptions{})
		fmt.Printf("localization: hit rate %.2f, die rate %.2f, mean error %.0f um (%d targets)\n",
			st.HitRate, st.DieRate, st.MeanError, len(tgt))

		rng := rand.New(rand.NewSource(*seed + 100))
		ch := attack.Characterize(dev, tgt, 6, rng)
		fmt.Printf("characterization: R2=%.3f (%d probes, %d test patterns)\n",
			ch.R2, ch.Probes, ch.TestPatterns)

		mon := attack.Monitor(dev, tgt[0], st.Results[0].EstPos, 24, rng)
		fmt.Printf("monitoring module %d: activity correlation %.3f\n",
			mon.Module, mon.Correlation)
		got[i] = scores{st.MeanError, ch.R2, mon.Correlation}

		inv := attack.InvertDevice(dev, attack.InversionOptions{Iterations: 400})
		fmt.Printf("power inversion (PowerField proxy): fidelity %.3f\n", inv.MeanFidelity())

		// Covert channel between the first two targets on one die.
		tx := tgt[0]
		rx := -1
		for _, m := range tgt[1:] {
			if res.Modules[m].Die == res.Modules[tx].Die {
				rx = m
				break
			}
		}
		if rx >= 0 {
			cv := attack.CovertChannel(res.Core(), tx, rx, attack.CovertOptions{Bits: 24}, rng)
			fmt.Printf("covert channel %d -> %d: BER %.3f at %.0f ms/bit, %.1f bit/s capacity\n",
				cv.Transmitter, cv.Receiver, cv.BER, cv.BitPeriodS*1e3, cv.ThroughputBPS)
		}
		fmt.Printf("attacker effort: %d steady-state reads\n", dev.Solves)
	}
	pa, tsc := got[0], got[1]
	fmt.Printf("\nTSC-aware minus power-aware: localization error %+.0f um, characterization R2 %+.3f, monitoring correlation %+.3f\n",
		tsc.err-pa.err, tsc.r2-pa.r2, tsc.corr-pa.corr)
	fmt.Println("mitigation shows as a larger error and a lower R2 and correlation.")
}
