// voltage_volumes walks through the paper's Sec. 6.1 voltage assignment in
// isolation: pack a floorplan, run the reference timing analysis, grow
// voltage volumes under both objectives, and compare — power-aware
// assignment merges modules into few low-voltage volumes; TSC-aware
// assignment fragments the partition to keep power densities uniform within
// and across volumes (the paper reports +87% volumes for that). It prints
// the measured direction of each change.
//
// Run with:
//
//	go run ./examples/voltage_volumes
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/timing"
	"repro/internal/volt"
	"repro/tscfp"
)

func main() {
	design := tscfp.MustBenchmark("ibm01").Netlist()
	rng := rand.New(rand.NewSource(3))
	layout := floorplan.NewRandom(design, rng).Pack()

	// Reference static timing at the 1.0 V level: the slack pool that
	// voltage assignment spends.
	ref := timing.Analyze(layout, nil)
	fmt.Printf("%s: %d modules, critical delay %.3f ns at 1.0 V\n",
		design.Name, len(design.Modules), ref.Critical)

	type summary struct{ volumes, power, intra, inter float64 }
	var got [2]summary
	for i, mode := range []volt.Mode{volt.PowerAware, volt.TSCAware} {
		asg := volt.Assign(layout, ref, mode)
		sta := volt.Repair(layout, asg)

		counts := map[float64]int{}
		for _, lv := range asg.LevelOf {
			counts[lv.V]++
		}
		name := "power-aware"
		if mode == volt.TSCAware {
			name = "TSC-aware"
		}
		got[i] = summary{float64(len(asg.Volumes)), asg.TotalPower,
			asg.IntraVolumeDensityStdDev(layout), asg.InterVolumeDensityStdDev(layout)}
		fmt.Printf("\n%s assignment:\n", name)
		fmt.Printf("  voltage volumes: %d\n", len(asg.Volumes))
		fmt.Printf("  modules at 0.8/1.0/1.2 V: %d / %d / %d\n",
			counts[0.8], counts[1.0], counts[1.2])
		fmt.Printf("  total power %.3f W (nominal %.3f W)\n", asg.TotalPower, design.TotalPower())
		fmt.Printf("  critical delay after repair %.3f ns (target %.3f ns)\n",
			sta.Critical, asg.Target)
		fmt.Printf("  power-density spread: intra-volume %.3g, inter-volume %.3g [W/um^2]\n",
			got[i].intra, got[i].inter)
	}

	// Print the measured direction of each change, not an expected one: on
	// ibm01's random floorplans TSC-aware assignment lowers the intra-volume
	// spread but raises the inter-volume spread (ROADMAP item 3).
	pa, tsc := got[0], got[1]
	fmt.Println("\npower-aware -> TSC-aware, measured:")
	for _, r := range []struct {
		name    string
		pa, tsc float64
	}{
		{"voltage volumes", pa.volumes, tsc.volumes},
		{"total power [W]", pa.power, tsc.power},
		{"intra-volume spread", pa.intra, tsc.intra},
		{"inter-volume spread", pa.inter, tsc.inter},
	} {
		dir := "higher"
		if r.tsc < r.pa {
			dir = "lower"
		}
		fmt.Printf("  %-20s %9.3g -> %9.3g  %+7.1f%%  %s\n", r.name, r.pa, r.tsc, 100*(r.tsc/r.pa-1), dir)
	}
	fmt.Println("paper (Table 2, whole flows): TSC-aware +87% volumes, +5.4% power,")
	fmt.Println("aiming at uniform power densities within and across volumes.")
}
