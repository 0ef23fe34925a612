package core

import (
	"math"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/thermal"
	"repro/internal/timing"
	"repro/internal/volt"
)

// evaluator adapts a floorplan to the anneal.Problem interface, computing
// the multi-objective cost of Sec. 7 with the fast thermal analysis in the
// loop (Fig. 3).
//
// Two evaluation paths share the same math: the incremental path (incr
// non-nil, see incremental.go) is the annealing loop's evaluator — it
// repacks only the dies a move touched and patches the per-net and per-die
// caches — while the full path packs the whole floorplan and recomputes
// every term from scratch. The full path is the oracle the check flag
// cross-checks every incremental evaluation against, and the one-shot
// evaluator behind the parallel annealer's shared normalization baselines.
type evaluator struct {
	fp   *floorplan.Floorplan
	cfg  *Config
	fast *thermal.FastEstimator

	// Voltage assignment is refreshed every VoltEvery evaluations; the
	// scales apply in between (module identity is stable across moves).
	evals       int
	powerScale  []float64
	delayScale  []float64
	nVolumes    int
	scaledPower float64

	// Normalization baselines (set on first evaluation).
	norm *normTerms

	// incr, when non-nil, holds the incremental caches; check enables the
	// per-eval full-recompute cross-check (debug aid, heavily slows runs).
	incr  *incrState
	check bool
	stats EvalStats
}

type normTerms struct {
	viol, wl, delay, peak, power, volumes, corr, entropy, rule float64
}

func nz(v float64) float64 {
	if v <= 1e-12 {
		return 1
	}
	return v
}

// Cost evaluates the current floorplan.
func (e *evaluator) Cost() float64 {
	if e.incr != nil {
		return e.incrementalCost()
	}
	e.stats.Evals++
	e.stats.FullEvals++
	l := e.fp.Pack()
	return e.finishCost(l, e.terms(l))
}

// finishCost normalizes and weights raw terms into the scalar cost,
// initializing the normalization baselines on the first evaluation. Both
// evaluation paths funnel through here.
func (e *evaluator) finishCost(l *floorplan.Layout, terms *normTerms) float64 {
	if e.norm == nil {
		n := *terms
		n.viol = nz(l.OutlineW * l.OutlineH * 0.05) // 5% of a die as the violation scale
		n.wl = nz(terms.wl)
		n.delay = nz(terms.delay)
		n.peak = nz(terms.peak)
		n.power = nz(terms.power)
		n.volumes = nz(terms.volumes)
		n.corr = nz(terms.corr)
		n.entropy = nz(terms.entropy)
		n.rule = 1 // already a fraction in [0,1]
		e.norm = &n
	}
	w := e.cfg.Weights
	cost := w.OutlineViolation*terms.viol/e.norm.viol +
		w.Wirelength*terms.wl/e.norm.wl +
		w.CriticalDelay*terms.delay/e.norm.delay +
		w.PeakTemp*terms.peak/e.norm.peak +
		w.Power*terms.power/e.norm.power +
		w.VoltageVolumes*terms.volumes/e.norm.volumes +
		w.DesignRule*terms.rule/e.norm.rule
	if e.cfg.Mode == TSCAware {
		cost += w.Correlation*terms.corr/e.norm.corr +
			w.SpatialEntropy*terms.entropy/e.norm.entropy
	}
	return cost
}

// terms computes the raw cost terms for a packed layout: the strided voltage
// refresh followed by the geometry- and scale-derived terms.
func (e *evaluator) terms(l *floorplan.Layout) *normTerms {
	e.refreshVoltage(l, func() *timing.Analysis {
		return timing.Analyze(l, nil, *e.cfg.TimingParams)
	})
	return e.staticTerms(l)
}

// refreshVoltage advances the evaluation counter and re-runs the voltage
// assignment on the stride boundary (the paper integrates it continuously;
// the stride keeps runtime at the reported ~30% overhead), otherwise
// refreshes the scaled power sum under the cached scales. ref supplies the
// reference STA for the assignment; the incremental path substitutes its
// cached net delays and runs the assignment on its held volt.Assigner.
// Reports whether the assignment ran.
func (e *evaluator) refreshVoltage(l *floorplan.Layout, ref func() *timing.Analysis) bool {
	refreshed := false
	if e.powerScale == nil || e.evals%e.cfg.VoltEvery == 0 {
		var asg *volt.Assignment
		if e.incr != nil {
			asg = e.incr.refreshVoltAssignment(e, ref())
		} else {
			asg = volt.Assign(l, ref(), e.voltConfig())
		}
		e.powerScale = asg.PowerScale
		e.delayScale = asg.DelayScale
		e.nVolumes = len(asg.Volumes)
		e.scaledPower = asg.TotalPower
		e.stats.VoltRefreshes++
		refreshed = true
	} else {
		e.scaledPower = 0
		for m, mod := range l.Design.Modules {
			e.scaledPower += mod.Power * e.powerScale[m]
		}
	}
	e.evals++
	return refreshed
}

// staticTerms computes the raw cost terms from the layout geometry and the
// current voltage scales, touching no evaluator bookkeeping. It is the
// full-recompute reference the incremental path is checked against.
func (e *evaluator) staticTerms(l *floorplan.Layout) *normTerms {
	t := &normTerms{}
	t.viol = l.OutlineViolation()
	t.wl = l.HPWL(e.cfg.TimingParams.VertLen)
	sta := timing.Analyze(l, e.delayScale, *e.cfg.TimingParams)
	t.delay = sta.Critical
	t.power = e.scaledPower
	t.volumes = float64(e.nVolumes)

	// Fast thermal estimate on the voltage-scaled power maps.
	powers := scaledPowers(l, e.powerScale)
	maps := make([]*geom.Grid, l.Dies)
	for d := 0; d < l.Dies; d++ {
		maps[d] = l.PowerMap(d, e.cfg.GridN, e.cfg.GridN, powers)
	}
	temps := e.fast.Estimate(maps)
	t.peak = peakOf(temps)

	if e.cfg.Mode == TSCAware {
		corr, entropy := 0.0, 0.0
		for d := 0; d < l.Dies; d++ {
			corr += math.Abs(leakage.Pearson(maps[d], temps[d]))
			entropy += leakage.SpatialEntropy(maps[d])
		}
		t.corr = corr / float64(l.Dies)
		t.entropy = entropy / float64(l.Dies)
	}

	t.rule = designRuleTerm(l, powers)
	return t
}

// peakOf returns the hottest cell over the per-die temperature maps.
func peakOf(temps []*geom.Grid) float64 {
	peak := 0.0
	for _, tm := range temps {
		if m := tm.Max(); m > peak {
			peak = m
		}
	}
	return peak
}

// designRuleTerm is Corblivar's thermal design rule: the power-weighted
// distance from the heatsink-side (top) die, as a fraction of total power.
func designRuleTerm(l *floorplan.Layout, powers []float64) float64 {
	if l.Dies <= 1 {
		return 0
	}
	away, total := 0.0, 0.0
	for m := range l.Design.Modules {
		p := powers[m]
		total += p
		away += p * float64(l.Dies-1-l.DieOf[m]) / float64(l.Dies-1)
	}
	if total <= 0 {
		return 0
	}
	return away / total
}

// voltConfig is the shared assignment configuration, used by the held
// Assigner in refreshVoltAssignment and by the full path's one-shot
// volt.Assign.
func (e *evaluator) voltConfig() volt.Config {
	mode := volt.PowerAware
	if e.cfg.Mode == TSCAware {
		mode = volt.TSCAware
	}
	return volt.Config{Mode: mode, TargetFactor: e.cfg.VoltTargetFactor}
}

// Perturb applies one floorplan move; voltage scales stay valid because the
// module set is unchanged (only geometry moves). With incremental caches
// active the undo closure also rolls the caches back.
func (e *evaluator) Perturb(rng *rand.Rand) func() {
	if e.incr == nil {
		_, undo := e.fp.Perturb(rng)
		return undo
	}
	return e.incr.perturb(e, rng)
}

// scaledPowers applies per-module power scaling (nil = nominal).
func scaledPowers(l *floorplan.Layout, scale []float64) []float64 {
	p := l.NominalPowers()
	if scale != nil {
		for m := range p {
			p[m] *= scale[m]
		}
	}
	return p
}
