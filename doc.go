// Package repro reproduces "On Mitigation of Side-Channel Attacks in 3D
// ICs: Decorrelating Thermal Patterns from Power and Activity" (Knechtel &
// Sinanoglu, DAC 2017) as a self-contained Go library.
//
// The public entry point is the repro/tscfp package: tscfp.NewFlow binds a
// design to functional options (mode, seed, annealing budget, grid
// resolution, dummy-TSV post-processing, progress callbacks), Flow.Run(ctx)
// executes the full TSC-aware floorplanning flow with cooperative
// cancellation, and tscfp.Sweep fans a parameter grid (seeds × modes × grid
// sizes) out over a worker pool. The options each set one field of
// tscfp.RunOptions, the single knob set, which is the flow's own
// configuration and the tscfpd job wire; tscfp.RunOptions.Canonical
// validates it for NewFlow and for the tscfpd job API alike. Results and
// designs serialize to stable JSON; the same design, seed, and options
// reproduce a Result byte-identically.
//
//	design, _ := tscfp.Benchmark("n100")
//	res, err := tscfp.Run(ctx, design,
//		tscfp.WithMode(tscfp.TSCAware),
//		tscfp.WithSeed(1))
//
// The implementation lives under internal/: the TSC-aware floorplanning
// flow (internal/core) on top of a corner-sequence floorplanner
// (internal/floorplan, internal/anneal), a HotSpot-class thermal solver
// (internal/thermal), leakage metrics (internal/leakage), Elmore/STA timing
// (internal/timing), voltage volumes (internal/volt), TSV planning
// (internal/tsv), activity modelling (internal/activity), the Sec. 5
// attacks (internal/attack), and Table 1 benchmark synthesis
// (internal/bench).
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; the cmd/ binaries (tscfp, attacksim, thermalmap) and
// the examples/ walk through the experiments interactively.
package repro
