// timescales reproduces Figure 1 of the paper with the transient solver:
// activity/power switches on nanosecond-to-millisecond scales while
// temperature responds over milliseconds-to-seconds, which is why the
// thermal side channel has low bandwidth — and why the paper's attacker
// model grants steady-state readings.
//
// Run with:
//
//	go run ./examples/timescales
package main

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/thermal"
)

func main() {
	const n = 16
	cfg := thermal.DefaultConfig(n, n, 4000, 4000, 2)
	stack := thermal.NewStack(cfg)

	// 10 W uniformly on the bottom die.
	p := geom.NewGrid(n, n)
	p.Fill(10.0 / (n * n))
	stack.SetDiePower(0, p)

	steady, _ := stack.SolveSteady(nil, thermal.SolverOpts{})
	rise := steady.Peak() - cfg.Ambient
	fmt.Printf("steady-state rise at constant power: %.2f K\n\n", rise)

	// Heating step response: time to reach 63% / 95% of the steady rise.
	dt := 1e-3
	traj := stack.SolveTransient(nil, dt, 600, 1, nil, thermal.SolverOpts{})
	t63, t95 := -1.0, -1.0
	for i, sol := range traj {
		r := sol.Peak() - cfg.Ambient
		if t63 < 0 && r >= 0.63*rise {
			t63 = float64(i+1) * dt
		}
		if t95 < 0 && r >= 0.95*rise {
			t95 = float64(i+1) * dt
		}
	}
	fmt.Printf("thermal step response: tau(63%%) = %.0f ms, t(95%%) = %.0f ms\n", t63*1e3, t95*1e3)

	// Fast activity toggling: power switches every 100 us (activity time
	// scale), far below the thermal time constant.
	base := traj[len(traj)-1]
	toggled := stack.SolveTransient(base, 1e-4, 400, 1, func(step int) float64 {
		if step%2 == 0 {
			return 2.0 // full activity
		}
		return 0.0 // idle
	}, thermal.SolverOpts{})
	lo, hi := toggled[50].Peak(), toggled[50].Peak()
	for _, sol := range toggled[50:] {
		p := sol.Peak()
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	fmt.Printf("\nactivity toggling at 5 kHz (power swings 0 <-> 2x):\n")
	fmt.Printf("  temperature ripple: %.3f K (%.1f%% of the steady rise)\n",
		hi-lo, 100*(hi-lo)/rise)
	fmt.Println("\nthe power square wave is invisible at thermal time scales —")
	fmt.Println("Figure 1's separation, and the reason the TSC needs steady-state attacks.")
}
