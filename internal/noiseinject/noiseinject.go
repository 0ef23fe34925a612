// Package noiseinject implements the prior-art countermeasure the paper
// positions itself against (Gu et al., "Thermal-aware 3D design for
// side-channel information leakage", ICCD 2016): runtime controllers that
// "inject dummy activities" to smooth the thermal profile and hinder
// thermal profiling of module activity.
//
// The paper's critique: (1) the injection principle costs extra power —
// prohibitive for thermally-constrained 3D ICs — and (2) the best
// leakage-mitigation rates are only achievable for the highest injection
// rates. examples/countermeasures prints injection's |r1|, power and peak
// next to a TSC-aware floorplan's.
package noiseinject

import (
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/thermal"
)

// Result reports one injection experiment.
type Result struct {
	// Alpha is the injection budget as a fraction of nominal power.
	Alpha float64
	// InjectedW is the dummy power actually spent.
	InjectedW float64
	// R holds the per-die power-temperature correlation AFTER injection,
	// measured against the true (secret) power maps — what an attacker
	// profiling module activity can still extract.
	R []float64
	// PeakTempK after injection.
	PeakTempK float64
}

// Smooth runs the runtime noise injector against a floorplanned result. Like
// the on-chip controllers of the prior art, it reads the thermal map (they
// do so via sensors), finds the cool regions and injects dummy activity
// there to flatten the profile: dummy power totalling alpha * (design power)
// is spread over the coolest quarter of each die's bins (proportionally to
// each die's share of the budget), the steady state is re-solved, and the
// remaining leakage is measured against the original secret power maps.
func Smooth(res *core.Result, alpha float64) Result {
	dies := res.Layout.Dies
	out := Result{Alpha: alpha, R: make([]float64, dies)}

	// Budget per die: proportional to the die's nominal power (the
	// controllers of the prior art are per-die/per-layer).
	totalP := 0.0
	dieP := make([]float64, dies)
	for d := 0; d < dies; d++ {
		dieP[d] = res.PowerMaps[d].Sum()
		totalP += dieP[d]
	}

	injected := make([]*geom.Grid, dies)
	for d := 0; d < dies; d++ {
		budget := alpha * dieP[d]
		out.InjectedW += budget
		injected[d] = injectionMap(res.TempMaps[d], budget)
	}

	// Re-solve with secret + dummy power.
	stack := res.Stack
	for d := 0; d < dies; d++ {
		combined := res.PowerMaps[d].Clone()
		combined.AddGrid(injected[d])
		stack.SetDiePower(d, combined)
	}
	sol, _ := stack.SolveSteady(nil, thermal.SolverOpts{})
	for d := 0; d < dies; d++ {
		out.R[d] = leakage.Pearson(res.PowerMaps[d], sol.DieTemp(d))
		stack.SetDiePower(d, res.PowerMaps[d]) // restore
	}
	out.PeakTempK = sol.Peak()
	return out
}

// injectionMap builds the dummy-power map: the budget is spread over the
// coolest quarter of the bins, weighted by how far below the die's hottest
// bin they sit — the flattening heuristic of the runtime controllers.
func injectionMap(temp *geom.Grid, budget float64) *geom.Grid {
	n := temp.NX * temp.NY
	gran := n / 4
	type bin struct {
		idx int
		t   float64
	}
	bins := make([]bin, n)
	for i := 0; i < n; i++ {
		bins[i] = bin{i, temp.Data[i]}
	}
	sort.Slice(bins, func(a, b int) bool { return bins[a].t < bins[b].t })
	hottest := temp.Max()
	weights := make([]float64, gran)
	wsum := 0.0
	for k := 0; k < gran; k++ {
		w := hottest - bins[k].t
		if w <= 0 {
			w = 1e-12
		}
		weights[k] = w
		wsum += w
	}
	out := geom.NewGrid(temp.NX, temp.NY)
	if wsum <= 0 || budget <= 0 {
		return out
	}
	for k := 0; k < gran; k++ {
		out.Data[bins[k].idx] = budget * weights[k] / wsum
	}
	return out
}
