package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/anneal"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/thermal"
)

// runAnneal is the flow's annealing stage: K tempered replicas, each with M
// speculative evaluator copies, where the default 1×1 is the paper's serial
// chain. It returns the best floorplan across all replicas plus the merged
// evaluation stats.
//
// Three steps depend on the shape. The serial chain walks the flow RNG
// itself, normalizes against its own first evaluation and reports no
// Replica*/Spec* stats, so a seed reproduces the historical serial walk.
// Any other shape takes exactly K+1 draws from the flow RNG (per-replica
// seeds plus the swap seed) and leaves it untouched until finalize, so the
// scheduler cannot perturb the downstream stages; it shares one set of
// normalization baselines and reports the ladder and batch stats.
func runAnneal(ctx context.Context, des *netlist.Design, cfg *Config, rng *rand.Rand, fast *thermal.FastEstimator) (*floorplan.Floorplan, EvalStats, error) {
	k := max(cfg.Replicas, 1)
	m := max(cfg.Speculation, 1)
	serial := k == 1 && m == 1

	rngs := []*rand.Rand{rng}
	var swapSeed int64
	if !serial {
		rngs = make([]*rand.Rand, k)
		for r := range rngs {
			rngs[r] = rand.New(rand.NewSource(rng.Int63()))
		}
		swapSeed = rng.Int63()
	}

	reps := make([]anneal.Replica, k)
	evs := make([][]*evaluator, k)
	bests := make([]*floorplan.Floorplan, k)
	for r := range reps {
		fp := floorplan.NewRandom(des, rngs[r])
		evs[r] = make([]*evaluator, m)
		probs := make([]anneal.Problem, m)
		for c := range evs[r] {
			if c > 0 {
				fp = fp.Clone()
			}
			evs[r][c] = &evaluator{fp: fp, cfg: cfg, fast: fast, incr: newIncrState(), check: cfg.CostCrossCheck}
			probs[c] = evs[r][c]
		}
		reps[r] = anneal.Replica{
			Problems: probs,
			RNG:      rngs[r],
			OnBest: func(float64) {
				if bests[r] == nil {
					bests[r] = evs[r][0].fp.Clone()
				} else {
					bests[r].CopyFrom(evs[r][0].fp)
				}
			},
		}
	}

	// Replica costs must be comparable across the ladder (swaps and the
	// best-of pick both compare them), so outside the serial chain every
	// evaluator shares one set of normalization baselines instead of
	// deriving its own from its replica's initial packing. A throwaway
	// full-path evaluator computes them once on the same reference
	// floorplan the serial chain would have started from (a fresh
	// Seed-derived stream), which puts AnnealBestCost on one scale for every
	// shape at a given seed. normTerms is read-only after this, so the
	// pointer is safe to share across the worker goroutines.
	var stats EvalStats
	if !serial {
		boot := &evaluator{fp: floorplan.NewRandom(des, rand.New(rand.NewSource(cfg.Seed))), cfg: cfg, fast: fast}
		boot.Cost()
		for r := range evs {
			for _, ev := range evs[r] {
				ev.norm = boot.norm
			}
		}
		addEvalStats(&stats, &boot.stats)
	}

	cfg.emit(ProgressEvent{Stage: StageAnneal, Total: cfg.SAIterations})
	pres := anneal.RunParallel(reps, anneal.ParallelOptions{
		Iterations: cfg.SAIterations,
		Ctx:        ctx,
		SwapSeed:   swapSeed,
		OnStride: func(done, total int, best float64) {
			cfg.emit(ProgressEvent{Stage: StageAnneal, Done: done, Total: total, Cost: best})
		},
	})

	for r := range evs {
		for _, ev := range evs[r] {
			addEvalStats(&stats, &ev.stats)
		}
	}
	stats.AnnealBestCost = pres.BestCost
	if !serial {
		stats.ReplicaCount = k
		stats.ReplicaSwapAttempts = pres.SwapAttempts
		stats.ReplicaSwapAccepts = pres.SwapAccepts
		stats.ReplicaBest = pres.Best
		stats.SpecWorkers = m
		stats.SpecBatches = pres.SpecBatches
		stats.SpecCommits = pres.SpecCommits
		stats.SpecDiscarded = pres.SpecDiscarded
	}

	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	best := bests[pres.Best]
	if best == nil {
		best = evs[pres.Best][0].fp
	}
	return best, stats, nil
}

// addEvalStats accumulates src into dst field by field, by reflection, so
// a counter added to RunStats or EvalStats merges without being listed
// here: every int sums, the embedded RunStats recurses, every []int
// histogram adds bucket-wise, floats take the max (MaxCrossCheckError is
// the only one an evaluator sets) and bools OR. The run-level fields — the
// Replica*/Spec* shape counts, the Solver* fields and AnnealBestCost — are
// zero on every evaluator and set after the merge.
func addEvalStats(dst, src *EvalStats) {
	addFields(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func addFields(dst, src reflect.Value) {
	for i := range dst.NumField() {
		d, s := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Int:
			d.SetInt(d.Int() + s.Int())
		case reflect.Float64:
			d.SetFloat(max(d.Float(), s.Float()))
		case reflect.Bool:
			d.SetBool(d.Bool() || s.Bool())
		case reflect.Struct:
			addFields(d, s)
		case reflect.Slice:
			if d.Len() < s.Len() {
				grown := reflect.MakeSlice(d.Type(), s.Len(), s.Len())
				reflect.Copy(grown, d)
				d.Set(grown)
			}
			for j := range s.Len() {
				d.Index(j).SetInt(d.Index(j).Int() + s.Index(j).Int())
			}
		default:
			panic(fmt.Sprintf("core: stats field %s has unmergeable kind %s", dst.Type().Field(i).Name, d.Kind()))
		}
	}
}
