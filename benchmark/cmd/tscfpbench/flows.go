package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/tscfp"
)

// flowWorkload runs one design through tscfp.Run, one flow at a time on
// the main goroutine, cycling over seeds derived from the run seed.
type flowWorkload struct {
	design string
	opts   tscfp.RunOptions
	// cycle is the number of distinct flow seeds. It is about the number of
	// flows a 20 s run completes: many seeds keep the median steady from one
	// run seed to the next, and the warm-up's seed comes round again, so
	// every run checks at least one result for byte-identity.
	cycle int
}

// synthBatch is how many design syntheses one set-up sample averages.
const synthBatch = 10

func boolp(v bool) *bool { return &v }

var flowWorkloads = map[string]flowWorkload{
	// The largest design at default knobs, post-processing off: packing, net
	// wirelength/Elmore, STA and the strided voltage refresh do the work.
	"anneal-ibm01": {"ibm01", tscfp.RunOptions{Mode: "tsc", Iterations: 300, GridN: 32, PostProcess: boolp(false)}, 12},
	// The paper's continuous voltage formulation (refresh on every accepted
	// move): voltage refresh and the adjacency index dominate.
	"anneal-n100-volt1": {"n100", tscfp.RunOptions{Mode: "tsc", Iterations: 400, GridN: 32, VoltEvery: 1, PostProcess: boolp(false)}, 16},
	// The full paper flow with m = 100 activity samples: the detailed
	// solver dominates and the anneal loop is a minority.
	"flow-n100-post": {"n100", tscfp.RunOptions{Mode: "tsc", Iterations: 400, GridN: 32, ActivitySamples: 100, PostProcess: boolp(true)}, 8},
}

func flowRunner(w flowWorkload) func(*bench) error {
	return func(b *bench) error { return b.runFlows(w) }
}

// opCost is what one flow run cost the process.
type opCost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (b *bench) runFlows(w flowWorkload) error {
	design, err := tscfp.Benchmark(w.design)
	if err != nil {
		return err
	}
	ro := b.shrink(w.opts)
	withSeed := func(i int) tscfp.RunOptions {
		o := ro
		o.Seed = deriveSeed(b.seed, i%w.cycle)
		return o
	}
	if _, err := b.flowOp(design, withSeed(0), false); err != nil { // warm-up, not timed
		return err
	}
	b.sampleSpeed(6)
	// Set-up is design synthesis, 0.5–3 ms. Each sample is the mean over a
	// batch of syntheses timed after a forced GC, so neither the warm-up's
	// garbage nor one collection inside a synthesis decides it.
	for i := 0; i < b.setupReps(9); i++ {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < synthBatch; k++ {
			if design, err = tscfp.Benchmark(w.design); err != nil {
				return err
			}
		}
		b.setups = append(b.setups, time.Since(t0).Seconds()/synthBatch)
	}
	var walls, cpus, allocs []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < b.seconds; i++ {
		// Traced runs alternate profiled and plain flows, so the tracing
		// overhead is measured inside one process.
		traced := b.trace && i%2 == 1
		b.sampleSpeed(2)
		c, err := b.flowOp(design, withSeed(i), traced)
		if err != nil {
			continue
		}
		if traced {
			b.tracedMs = append(b.tracedMs, ms(c.wall))
			continue
		}
		b.plainMs = append(b.plainMs, ms(c.wall))
		walls = append(walls, ms(c.wall))
		cpus = append(cpus, ms(c.cpu))
		allocs = append(allocs, float64(c.alloc)/1e6)
	}
	if len(walls) == 0 {
		return fmt.Errorf("no flow completed")
	}
	b.latMs = walls
	b.cpuMsPerOp = median(cpus)
	b.allocMBPerOp = median(allocs)
	return nil
}

// flowOp runs one flow and checks its result. A traced flow runs under the
// CPU profiler with its stages timed and labelled.
func (b *bench) flowOp(design *tscfp.Design, ro tscfp.RunOptions, traced bool) (opCost, error) {
	b.attempted++
	res, c, err := b.runFlow(design, ro, traced, "window")
	if err != nil {
		b.fail("seed %d: %v", ro.Seed, err)
		return c, err
	}
	b.checkLive(design, ro, res)
	return c, nil
}

// runFlow runs tscfp.Run once; traced runs profile into the given group
// and record a flowTrace.
func (b *bench) runFlow(design *tscfp.Design, ro tscfp.RunOptions, traced bool, group string) (*tscfp.Result, opCost, error) {
	opts, err := ro.Options()
	if err != nil {
		return nil, opCost{}, err
	}
	var tr *stageTracer
	if traced {
		if err := b.prof.start(group); err != nil {
			return nil, opCost{}, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := rusage()
	if traced {
		tr = newStageTracer()
		opts = append(opts, tr.option())
	}
	t0 := time.Now()
	res, err := tscfp.Run(context.Background(), design, opts...)
	wall := time.Since(t0)
	if traced {
		tr.enter("")
	}
	cpu1, _ := rusage()
	runtime.ReadMemStats(&m1)
	if traced {
		if perr := b.prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	c := opCost{wall: wall, cpu: cpu1 - cpu0, alloc: m1.TotalAlloc - m0.TotalAlloc}
	if err != nil {
		return nil, c, err
	}
	if traced {
		b.flows = append(b.flows, flowTrace{wall: wall, spans: tr.spans, allocs: tr.allocs, stats: res.Core().EvalStats})
	}
	return res, c, nil
}
