package core

import (
	"context"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/thermal"
)

// runParallelAnneal is the Replicas/Speculation annealing stage: K tempered
// chains, each with M speculative evaluator copies, replacing the serial
// anneal.Run call. It returns the best floorplan across all chains plus the
// merged evaluation stats.
//
// Determinism layout: the flow RNG contributes exactly K+1 draws (one seed
// per replica plus the swap-decision seed) and is then untouched until
// finalize, so the walk inside the replicas — whatever the scheduler does —
// cannot perturb the downstream stages. Each replica derives its initial
// floorplan and its whole move stream from its own seeded RNG, and the
// engine's barrier discipline does the rest: a fixed (Seed, Replicas,
// Speculation) triple gives a byte-identical Result for any GOMAXPROCS.
func runParallelAnneal(ctx context.Context, des *netlist.Design, cfg *Config, rng *rand.Rand, fast *thermal.FastEstimator) (*floorplan.Floorplan, EvalStats, error) {
	k := cfg.Replicas
	if k < 1 {
		k = 1
	}
	m := cfg.Speculation
	if m < 1 {
		m = 1
	}
	seeds := make([]int64, k)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	swapSeed := rng.Int63()

	newEval := func(fp *floorplan.Floorplan) *evaluator {
		return &evaluator{fp: fp, cfg: cfg, fast: fast, incr: newIncrState(), check: cfg.CostCrossCheck}
	}

	reps := make([]anneal.Replica, k)
	evs := make([][]*evaluator, k)
	bests := make([]*floorplan.Floorplan, k)
	for r := range reps {
		rrng := rand.New(rand.NewSource(seeds[r]))
		fp := floorplan.NewRandom(des, rrng)
		evs[r] = make([]*evaluator, m)
		probs := make([]anneal.Problem, m)
		for c := range evs[r] {
			if c == 0 {
				evs[r][c] = newEval(fp)
			} else {
				evs[r][c] = newEval(fp.Clone())
			}
			probs[c] = evs[r][c]
		}
		r := r
		reps[r] = anneal.Replica{
			Problems: probs,
			RNG:      rrng,
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
	// best-of pick both compare them), so every evaluator shares one set of
	// normalization baselines instead of deriving its own from its replica's
	// initial packing. A throwaway full-path evaluator computes them once on
	// the same reference floorplan the serial path would have started from
	// (a fresh Seed-derived stream), which puts AnnealBestCost on one scale
	// for every replica/speculation shape at a given seed. normTerms is
	// read-only after this, so the pointer is safe to share across the
	// worker goroutines.
	boot := &evaluator{fp: floorplan.NewRandom(des, rand.New(rand.NewSource(cfg.Seed))), cfg: cfg, fast: fast}
	boot.Cost()
	for r := range evs {
		for _, ev := range evs[r] {
			ev.norm = boot.norm
		}
	}

	pres := anneal.RunParallel(reps, anneal.ParallelOptions{
		Schedule: anneal.Options{Iterations: cfg.SAIterations, Ctx: ctx},
		SwapSeed: swapSeed,
		OnStride: func(done, total int, best float64) {
			cfg.emit(ProgressEvent{Stage: StageAnneal, Done: done, Total: total, Cost: best})
		},
	})

	var stats EvalStats
	addEvalStats(&stats, &boot.stats)
	for r := range evs {
		for _, ev := range evs[r] {
			addEvalStats(&stats, &ev.stats)
		}
	}
	stats.AnnealBestCost = pres.BestCost
	stats.Replicas = k
	stats.ReplicaSwapAttempts = pres.SwapAttempts
	stats.ReplicaSwapAccepts = pres.SwapAccepts
	stats.ReplicaBest = pres.Best
	stats.SpecWorkers = m
	stats.SpecBatches = pres.SpecBatches
	stats.SpecCommits = pres.SpecCommits
	stats.SpecDiscarded = pres.SpecDiscarded

	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	best := bests[pres.Best]
	if best == nil {
		best = evs[pres.Best][0].fp
	}
	return best, stats, nil
}

// addEvalStats accumulates src into dst: every effort counter sums, the
// cross-check drift takes the max. The Replica*/Spec* fields are run-level,
// set by runParallelAnneal after merging, and are not touched here.
func addEvalStats(dst, src *EvalStats) {
	dst.Evals += src.Evals
	dst.FullEvals += src.FullEvals
	dst.IncrementalEvals += src.IncrementalEvals
	dst.VoltRefreshes += src.VoltRefreshes
	dst.VoltIncrementalRefreshes += src.VoltIncrementalRefreshes
	dst.VoltCandidatesReused += src.VoltCandidatesReused
	dst.VoltCandidatesRegrown += src.VoltCandidatesRegrown
	dst.VoltCrossChecks += src.VoltCrossChecks
	dst.EntropyPatched += src.EntropyPatched
	dst.EntropyRebuilt += src.EntropyRebuilt
	dst.EntropyCrossChecks += src.EntropyCrossChecks
	dst.AdjFullSweeps += src.AdjFullSweeps
	dst.AdjIncrementalUpdates += src.AdjIncrementalUpdates
	dst.AdjRowsChanged += src.AdjRowsChanged
	dst.AdjCrossChecks += src.AdjCrossChecks
	dst.STAPatches += src.STAPatches
	dst.STARebuilds += src.STARebuilds
	dst.DiesRepacked += src.DiesRepacked
	dst.DiesReused += src.DiesReused
	dst.NetsRecomputed += src.NetsRecomputed
	dst.NetsReused += src.NetsReused
	dst.ResponsesComputed += src.ResponsesComputed
	dst.ResponsesReused += src.ResponsesReused
	dst.CrossChecks += src.CrossChecks
	if src.MaxCrossCheckError > dst.MaxCrossCheckError {
		dst.MaxCrossCheckError = src.MaxCrossCheckError
	}
	dst.PackMoves += src.PackMoves
	dst.PackDieDiffs += src.PackDieDiffs
	dst.PackReplayedPositions += src.PackReplayedPositions
	dst.PackChangedModules += src.PackChangedModules
	if src.PackChangedHist != nil {
		if dst.PackChangedHist == nil {
			dst.PackChangedHist = make([]int, len(src.PackChangedHist))
		}
		for i, c := range src.PackChangedHist {
			dst.PackChangedHist[i] += c
		}
	}
	dst.AdjBulkFallbacks += src.AdjBulkFallbacks
}
