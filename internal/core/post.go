package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/activity"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/thermal"
)

// The activity model draws each module's power with a relative sigma of
// 0.10, as the paper does, and each inserted dummy group is an island of 8
// vias.
const (
	activitySigma     = 0.10
	dummyViasPerGroup = 8
)

// postProcess runs the Sec. 6.2 stage on a finalized result: sample
// Gaussian-distributed activities, evaluate the steady-state temperatures
// for each, build the per-bin correlation-stability map (Eq. 2), and insert
// dummy thermal-TSV groups at the most stable bins as long as the watched
// correlation keeps dropping — the paper's "sweet spot" stop criterion.
//
// With Config.ProtectedModules set, the stage runs the paper's Sec. 7.1
// adaptation instead: only bins covered by the protected modules are
// targeted and watched, and collateral stabilization elsewhere is accepted.
func postProcess(ctx context.Context, res *Result, cfg *Config, rng *rand.Rand, nominal *thermal.Solution) error {
	l := res.Layout
	stack := res.Stack
	n := cfg.GridN

	// --- Activity sampling (Eq. 2 inputs) --------------------------------
	powers := scaledPowers(l, res.Assignment.PowerScale)
	sampler := activity.NewSamplerFromPowers(powers, activitySigma)
	mSamples := cfg.ActivitySamples
	powerSamples := make([][]*geom.Grid, l.Dies) // [die][sample]
	tempSamples := make([][]*geom.Grid, l.Dies)
	for d := 0; d < l.Dies; d++ {
		powerSamples[d] = make([]*geom.Grid, mSamples)
		tempSamples[d] = make([]*geom.Grid, mSamples)
	}
	warm := nominal
	cfg.emit(ProgressEvent{Stage: StageSampling, Total: mSamples})
	for k := 0; k < mSamples; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := sampler.Sample(rng)
		for d := 0; d < l.Dies; d++ {
			pm := l.PowerMap(d, n, n, p)
			powerSamples[d][k] = pm
			stack.SetDiePower(d, pm)
		}
		sol, _ := stack.SolveSteady(warm, thermal.SolverOpts{Tol: 1e-4, Ctx: ctx, Workers: cfg.Parallelism})
		warm = sol
		for d := 0; d < l.Dies; d++ {
			tempSamples[d][k] = sol.DieTemp(d)
		}
		cfg.emit(ProgressEvent{Stage: StageSampling, Done: k + 1, Total: mSamples})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Restore nominal power maps.
	for d := 0; d < l.Dies; d++ {
		stack.SetDiePower(d, res.PowerMaps[d])
	}

	// Sampled leakage metrics: SVF and mean stability per die.
	stab := make([]*geom.Grid, l.Dies)
	for d := 0; d < l.Dies; d++ {
		stab[d] = leakage.StabilityMap(powerSamples[d], tempSamples[d])
		res.Metrics.PerDie[d].SVF = leakage.SVF(powerSamples[d], tempSamples[d])
		res.Metrics.PerDie[d].MeanStability = leakage.MeanAbsStability(stab[d])
	}
	syncDieAliases(&res.Metrics)

	// Protection masks: nil = whole-die scope; otherwise the bins covered
	// by the protected modules, per die.
	masks := protectionMasks(res, cfg)

	// Stability map guiding insertion.
	combined := geom.NewGrid(n, n)
	switch {
	case masks != nil:
		for d := 0; d < l.Dies; d++ {
			if masks[d] == nil {
				continue
			}
			for i, v := range stab[d].Data {
				if masks[d][i] {
					combined.Data[i] += math.Abs(v)
				}
			}
		}
	case cfg.PostCriterion == BottomDie:
		for i, v := range stab[0].Data {
			combined.Data[i] = math.Abs(v)
		}
	default:
		for d := 0; d < l.Dies; d++ {
			for i, v := range stab[d].Data {
				combined.Data[i] += math.Abs(v) / float64(l.Dies)
			}
		}
	}

	// --- Iterative dummy-TSV insertion -----------------------------------
	watched := func(sol *thermal.Solution) float64 {
		if masks != nil {
			s, c := 0.0, 0
			for d := 0; d < l.Dies; d++ {
				if masks[d] == nil {
					continue
				}
				s += math.Abs(leakage.MaskedPearson(res.PowerMaps[d], sol.DieTemp(d), masks[d]))
				c++
			}
			if c == 0 {
				return 0
			}
			return s / float64(c)
		}
		if cfg.PostCriterion == BottomDie {
			return math.Abs(leakage.Pearson(res.PowerMaps[0], sol.DieTemp(0)))
		}
		s := 0.0
		for d := 0; d < l.Dies; d++ {
			s += math.Abs(leakage.Pearson(res.PowerMaps[d], sol.DieTemp(d)))
		}
		return s / float64(l.Dies)
	}
	cur := watched(nominal)
	res.Metrics.PostCorrelationBefore = cur
	cfg.emit(ProgressEvent{Stage: StagePostProcess, Total: cfg.MaxDummyGroups, Cost: cur})

	// Insertions proceed most-stable-bin first while the watched correlation
	// keeps dropping. A rejected bin is reverted and skipped; after
	// `patience` consecutive rejections we are past the paper's "sweet
	// spot" and stop.
	const patience = 5
	used := make([]bool, n*n)
	outline := l.Outline()
	warmSol := nominal
	rejected := 0
	for g := 0; g < cfg.MaxDummyGroups && rejected < patience; g++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		bi, bj, val := leakage.MostStableBin(combined, used)
		if val <= 0 {
			break
		}
		used[bj*n+bi] = true
		candidate := res.TSVs.Clone()
		pos := res.PowerMaps[0].CellCenter(outline, bi, bj)
		if cfg.PostCriterion == BottomDie && masks == nil {
			// Protect the bottom die: its escape path crosses gap 0.
			candidate.AddDummyGap(0, pos, dummyViasPerGroup)
		} else {
			// Whole-stack (or protected-region) scope: pipe heat through
			// every gap under the stable bin.
			for g := 0; g < stack.Gaps(); g++ {
				candidate.AddDummyGap(g, pos, dummyViasPerGroup)
			}
		}
		applyTSVs(stack, candidate, n)
		sol, _ := stack.SolveSteady(warmSol, thermal.SolverOpts{Tol: 1e-5, Ctx: ctx, Workers: cfg.Parallelism})
		if err := ctx.Err(); err != nil {
			return err
		}
		if c := watched(sol); c < cur {
			cur = c
			res.TSVs = candidate
			warmSol = sol
			rejected = 0
		} else {
			applyTSVs(stack, res.TSVs, n)
			rejected++
		}
		cfg.emit(ProgressEvent{Stage: StagePostProcess, Done: g + 1, Total: cfg.MaxDummyGroups, Cost: cur})
	}

	// Refresh the final maps and metrics with the accepted TSV set.
	finalSol, _ := stack.SolveSteady(warmSol, thermal.SolverOpts{Workers: cfg.Parallelism})
	for d := 0; d < l.Dies; d++ {
		res.TempMaps[d] = finalSol.DieTemp(d)
	}
	for d := 0; d < l.Dies; d++ {
		res.Metrics.PerDie[d].R = leakage.Pearson(res.PowerMaps[d], res.TempMaps[d])
	}
	syncDieAliases(&res.Metrics)
	res.Metrics.PeakTempK = finalSol.Peak()
	res.Metrics.PostCorrelationAfter = cur
	return nil
}

// protectionMasks rasterizes the protected modules' footprints into per-die
// bin masks. Returns nil when no protection is configured; individual dies
// without protected modules get nil masks.
func protectionMasks(res *Result, cfg *Config) [][]bool {
	if len(cfg.ProtectedModules) == 0 {
		return nil
	}
	l := res.Layout
	n := cfg.GridN
	masks := make([][]bool, l.Dies)
	outline := l.Outline()
	for _, mi := range cfg.ProtectedModules {
		d := l.DieOf[mi]
		if masks[d] == nil {
			masks[d] = make([]bool, n*n)
		}
		r := l.Rects[mi]
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				cell := geom.Rect{
					X: outline.X + float64(i)*outline.W/float64(n),
					Y: outline.Y + float64(j)*outline.H/float64(n),
					W: outline.W / float64(n),
					H: outline.H / float64(n),
				}
				if r.OverlapArea(cell) > 0 {
					masks[d][j*n+i] = true
				}
			}
		}
	}
	return masks
}
