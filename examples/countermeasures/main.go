// countermeasures compares the paper's design-time mitigation against the
// prior art it critiques (Gu et al.'s runtime thermal-noise injection):
// for the same benchmark, how much does each approach decorrelate the
// bottom die, and what does it cost in power and peak temperature?
//
// The paper's argument (Sec. 1): injection "causes further power
// dissipation, which may be prohibitive for thermal- and power-constrained
// 3D ICs in the first place", and "the best leakage-mitigation rates are
// only achievable for the highest injection rates".
//
// Run with:
//
//	go run ./examples/countermeasures
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"repro/internal/noiseinject"
	"repro/tscfp"
)

func main() {
	log.SetFlags(0)
	design := tscfp.MustBenchmark("n100")

	// Both floorplans run concurrently on the sweep worker pool.
	results, err := tscfp.Sweep(context.Background(), tscfp.Grid{
		Design: design,
		Seeds:  []int64{5},
		Modes:  []tscfp.Mode{tscfp.PowerAware, tscfp.TSCAware},
		Options: []tscfp.Option{
			tscfp.WithIterations(1500),
			tscfp.WithActivitySamples(40),
		},
	}, tscfp.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	for _, sr := range results {
		if sr.Err != nil {
			log.Fatal(sr.Err)
		}
	}
	pa, tsc := results[0].Result, results[1].Result

	type row struct {
		name               string
		absR1, power, peak float64
	}
	rows := []row{{"none (power-aware baseline)", math.Abs(pa.Metrics.R1), pa.Metrics.PowerW, pa.Metrics.PeakTempK}}
	for _, alpha := range []float64{0.1, 0.25, 0.5, 1.0} {
		r := noiseinject.Smooth(pa.Core(), alpha)
		rows = append(rows, row{fmt.Sprintf("noise injection alpha=%.2f", alpha),
			math.Abs(r.R[0]), pa.Metrics.PowerW + r.InjectedW, r.PeakTempK})
	}
	ours := row{"TSC-aware floorplan (ours)", math.Abs(tsc.Metrics.R1), tsc.Metrics.PowerW, tsc.Metrics.PeakTempK}
	rows = append(rows, ours)

	fmt.Printf("%-30s %8s %10s %10s\n", "countermeasure", "|r1|", "power[W]", "peak[K]")
	for _, r := range rows {
		fmt.Printf("%-30s %8.3f %10.3f %10.2f\n", r.name, r.absR1, r.power, r.peak)
	}

	base := rows[0]
	extra := func(r row) float64 { return 100 * (r.power - base.power) / base.power }
	fmt.Printf("\nTSC-aware floorplan pays %+.1f%% power over the power-aware baseline\n", extra(ours))
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].absR1 < rows[b].absR1 })
	fmt.Println("ordering by |r1|, lowest first, with power and peak over the baseline:")
	for _, r := range rows {
		fmt.Printf("  %-30s %8.3f %+8.1f%% %+8.2f K\n", r.name, r.absR1, extra(r), r.peak-base.peak)
	}
	fmt.Println("reading: the rows above the TSC-aware floorplan decorrelate more;")
	fmt.Println("their power and peak columns are what that costs at this budget.")
}
