package thermal

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/par"
)

// FastEstimator is the in-loop thermal analysis: per (source die, target
// die) Gaussian impulse-response masks calibrated against the detailed
// solver, then applied by separable convolution over the power maps. This
// mirrors Corblivar's "power blurring" analysis, which the paper describes
// as fast but "inferior to the detailed analysis of HotSpot, especially for
// diverse arrangements of TSVs" — the estimator deliberately ignores TSV
// heterogeneity, exactly like its model.
type FastEstimator struct {
	nx, ny  int
	dies    int
	ambient float64
	// calibration is shared read-only by every estimator of the same stack
	// (see Fast), so goroutines may share it too.
	calibration
	// workers bounds the goroutines fanned out per convolution pass;
	// 0 selects GOMAXPROCS, 1 forces the serial path. Blur outputs are
	// byte-identical for every worker count (each output cell is computed
	// independently).
	workers int
}

// calibration is what the impulse solves measure: amp[s][t] is the peak
// response (K per W) on target die t for a unit impulse on source die s,
// and kernel[s][t] the normalized Gaussian of that response's spatial
// spread (in cells). Neither is written after calibrate returns.
type calibration struct {
	amp    [][]float64
	kernel [][][]float64
}

// Fast returns an estimator for the given stack configuration, with its
// convolutions bounded to `workers` goroutines — 0 selects GOMAXPROCS,
// 1 forces the serial path. The calibration (one detailed impulse solve
// per die, on a clean TSV-free stack) runs on the configuration's first
// request in the process and is shared by every later one: each caller
// gets its own estimator over it, so one calibration serves every worker
// count. Outputs are identical for every setting.
func Fast(cfg Config, workers int) *FastEstimator {
	return newFast(cfg, fastEstimators.get(cfg, workers), workers)
}

func newFast(cfg Config, c calibration, workers int) *FastEstimator {
	return &FastEstimator{nx: cfg.NX, ny: cfg.NY, dies: cfg.Dies, ambient: cfg.Ambient, calibration: c, workers: workers}
}

// fastTableBound caps the calibrations the process keeps. A key is the
// whole stack, outline included, so every inline tscfpd design is its own
// entry; the cap keeps them from growing the table without limit.
const fastTableBound = 32

// fastEstimators is the process's one table of calibrations.
var fastEstimators = newFastTable(fastTableBound)

// fastTable maps each stack configuration to its calibration, filled once
// per key and evicting the oldest key beyond its bound.
type fastTable struct {
	bound int

	mu      sync.Mutex
	entries map[string]func() calibration
	order   []string // keys in insertion order, oldest first

	calibrations atomic.Int64 // fills run; read by tests
}

func newFastTable(bound int) *fastTable {
	return &fastTable{bound: bound, entries: make(map[string]func() calibration, bound)}
}

// get returns cfg's calibration, running it on the key's first request;
// concurrent first requests share one run. The key is cfg's Go-syntax
// text, which spells out every field calibration reads — the grid, the
// outline, the die count, ambient, both resistances and each layer — and
// round-trips every float, so two configurations share an entry only when
// they are equal field by field.
func (t *fastTable) get(cfg Config, workers int) calibration {
	key := fmt.Sprintf("%#v", cfg)
	t.mu.Lock()
	fill, ok := t.entries[key]
	if !ok {
		fill = sync.OnceValue(func() calibration {
			t.calibrations.Add(1)
			return calibrate(cfg, workers)
		})
		if len(t.order) == t.bound {
			delete(t.entries, t.order[0])
			t.order = append(t.order[:0], t.order[1:]...)
		}
		t.entries[key] = fill
		t.order = append(t.order, key)
	}
	t.mu.Unlock()
	return fill()
}

// calibrate runs one detailed impulse solve per die on a clean TSV-free
// stack of the given configuration (bounded to `workers` goroutines, which
// does not change the result).
func calibrate(cfg Config, workers int) calibration {
	c := calibration{
		amp:    make([][]float64, cfg.Dies),
		kernel: make([][][]float64, cfg.Dies),
	}
	stack := NewStack(cfg)
	ci, cj := cfg.NX/2, cfg.NY/2
	for src := 0; src < cfg.Dies; src++ {
		c.amp[src] = make([]float64, cfg.Dies)
		c.kernel[src] = make([][]float64, cfg.Dies)
		// Unit impulse: 1 W in the center cell of the source die.
		for d := 0; d < cfg.Dies; d++ {
			stack.SetDiePower(d, geom.NewGrid(cfg.NX, cfg.NY))
		}
		imp := geom.NewGrid(cfg.NX, cfg.NY)
		imp.Set(ci, cj, 1.0)
		stack.SetDiePower(src, imp)
		sol, _ := stack.SolveSteady(nil, SolverOpts{Tol: 1e-6, Workers: workers})
		for tgt := 0; tgt < cfg.Dies; tgt++ {
			dt := sol.DieTemp(tgt)
			// Response above the die's far-field (baseline) temperature.
			base := dt.Quantile(0.05)
			peak := dt.At(ci, cj) - base
			if peak <= 0 {
				peak = 1e-9
			}
			// Second moment of the excess response gives the Gaussian sigma.
			var m0, m2 float64
			for j := 0; j < cfg.NY; j++ {
				for i := 0; i < cfg.NX; i++ {
					e := dt.At(i, j) - base
					if e <= 0 {
						continue
					}
					dx, dy := float64(i-ci), float64(j-cj)
					m0 += e
					m2 += e * (dx*dx + dy*dy)
				}
			}
			sig := 1.0
			if m0 > 0 {
				sig = math.Sqrt(m2 / m0 / 2.0)
			}
			if sig < 0.5 {
				sig = 0.5
			}
			c.amp[src][tgt] = peak
			c.kernel[src][tgt] = gaussianKernel(sig)
		}
	}
	return c
}

// ResponseInto returns source die s's scaled contribution to every target
// die's temperature map for the given power map: out[t] = amp[s][t] *
// blur(power, sigma[s][t]). It is the unit of work the incremental cost
// evaluator caches — when only one die's power map changes between
// annealing moves, the other sources' responses are reused verbatim.
//
// out is reused when it holds a grid per die of power's dimensions (nil, or
// any other shape, allocates fresh grids); scratch backs the blur's
// horizontal pass (nil allocates one). The scratch grid belongs to the
// caller because the estimator is shared read-only, e.g. by replica
// goroutines. With both supplied and a serial blur, the call allocates
// nothing.
func (fe *FastEstimator) ResponseInto(power *geom.Grid, s int, out []*geom.Grid, scratch *geom.Grid) []*geom.Grid {
	nx, ny := power.NX, power.NY
	if len(out) != fe.dies {
		out = make([]*geom.Grid, fe.dies)
	}
	if scratch == nil || scratch.NX != nx || scratch.NY != ny {
		scratch = geom.NewGrid(nx, ny)
	}
	for t := range out {
		if out[t] == nil || out[t].NX != nx || out[t].NY != ny {
			out[t] = geom.NewGrid(nx, ny)
		}
		blurInto(out[t], power, scratch, fe.kernel[s][t], fe.workers)
		out[t].ScaleBy(fe.amp[s][t])
	}
	return out
}

// CombineInto sums per-source responses (as returned by ResponseInto,
// indexed resp[source][target]) plus the ambient offset into per-die
// temperature maps. Estimate(power) == CombineInto over each source's
// ResponseInto — byte for byte, which is what lets cached and
// freshly-computed responses mix. It reuses a previously returned output
// slice (nil allocates a fresh one): the annealing loop calls it once per
// move, so the per-die grids are worth recycling.
func (fe *FastEstimator) CombineInto(resp [][]*geom.Grid, out []*geom.Grid) []*geom.Grid {
	if len(resp) != fe.dies {
		panic("thermal: response count must equal die count")
	}
	if len(out) != fe.dies {
		out = make([]*geom.Grid, fe.dies)
	}
	for t := 0; t < fe.dies; t++ {
		if out[t] == nil || out[t].NX != fe.nx || out[t].NY != fe.ny {
			out[t] = geom.NewGrid(fe.nx, fe.ny)
		}
		out[t].Fill(fe.ambient)
	}
	for s := 0; s < fe.dies; s++ {
		for t := 0; t < fe.dies; t++ {
			out[t].AddGrid(resp[s][t])
		}
	}
	return out
}

// Estimate returns the estimated temperature map (K) of each die given the
// per-die power maps (W per cell). Superposition of blurred sources plus the
// ambient offset.
func (fe *FastEstimator) Estimate(power []*geom.Grid) []*geom.Grid {
	if len(power) != fe.dies {
		panic("thermal: power map count must equal die count")
	}
	resp := make([][]*geom.Grid, fe.dies)
	scratch := geom.NewGrid(fe.nx, fe.ny)
	for s := range resp {
		resp[s] = fe.ResponseInto(power[s], s, nil, scratch)
	}
	return fe.CombineInto(resp, nil)
}

// Adjoint applies the transpose of the estimator's linear operator to a set
// of per-die temperature residuals, yielding per-die power-space gradients.
// Because the Gaussian blur kernel is symmetric, the adjoint of "blur then
// scale by amp" is "scale by amp then blur": adj_s = sum_t amp[s][t] *
// blur(residual_t, sigma[s][t]). Used by the temperature-to-power inversion
// attack (the paper's cited PowerField-style proxy).
func (fe *FastEstimator) Adjoint(residuals []*geom.Grid) []*geom.Grid {
	if len(residuals) != fe.dies {
		panic("thermal: residual count must equal die count")
	}
	out := make([]*geom.Grid, fe.dies)
	for s := 0; s < fe.dies; s++ {
		g := geom.NewGrid(fe.nx, fe.ny)
		for t := 0; t < fe.dies; t++ {
			r := residuals[t]
			b := geom.NewGrid(r.NX, r.NY)
			blurInto(b, r, geom.NewGrid(r.NX, r.NY), fe.kernel[s][t], fe.workers)
			b.ScaleBy(fe.amp[s][t])
			g.AddGrid(b)
		}
		out[s] = g
	}
	return out
}

// Rises returns the temperature-rise maps (without the ambient offset) for
// the given power maps: the pure linear part of Estimate.
func (fe *FastEstimator) Rises(power []*geom.Grid) []*geom.Grid {
	maps := fe.Estimate(power)
	for _, m := range maps {
		for i := range m.Data {
			m.Data[i] -= fe.ambient
		}
	}
	return maps
}

// Dies returns the estimator's die count.
func (fe *FastEstimator) Dies() int { return fe.dies }

// gaussianKernel returns the normalized Gaussian of the given sigma (in
// cells), truncated at radius ceil(3*sigma) >= 1. A non-positive sigma gives
// the identity kernel.
func gaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	sum := 0.0
	for k := -radius; k <= radius; k++ {
		v := math.Exp(-float64(k*k) / (2 * sigma * sigma))
		kernel[k+radius] = v
		sum += v
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	return kernel
}

// blurInto writes src convolved with the separable kernel (odd length,
// reflective boundaries) into dst, using tmp for the horizontal pass; all
// three grids share src's dimensions and dst and tmp are fully
// overwritten. The two passes fan their rows across `workers` goroutines
// (0 = GOMAXPROCS); every output cell is computed independently, so the
// result does not depend on the fan-out. A serial blur allocates nothing.
func blurInto(dst, src, tmp *geom.Grid, kernel []float64, workers int) {
	radius := len(kernel) / 2
	workers = blurWorkers(workers, src.NX, src.NY, radius)
	if workers <= 1 {
		blurRows(tmp, src, kernel, 0, src.NY)
		blurCols(dst, tmp, kernel, 0, src.NY)
		return
	}
	par.For(workers, src.NY, func(jlo, jhi int) { blurRows(tmp, src, kernel, jlo, jhi) })
	par.For(workers, src.NY, func(jlo, jhi int) { blurCols(dst, tmp, kernel, jlo, jhi) })
}

// blurRows is the horizontal pass of blurInto over rows [jlo, jhi).
func blurRows(dst, src *geom.Grid, kernel []float64, jlo, jhi int) {
	nx, radius := src.NX, len(kernel)/2
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			acc := 0.0
			for k := -radius; k <= radius; k++ {
				ii := reflect(i+k, nx)
				acc += kernel[k+radius] * src.At(ii, j)
			}
			dst.Set(i, j, acc)
		}
	}
}

// blurCols is the vertical pass of blurInto over rows [jlo, jhi).
func blurCols(dst, src *geom.Grid, kernel []float64, jlo, jhi int) {
	nx, ny, radius := src.NX, src.NY, len(kernel)/2
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			acc := 0.0
			for k := -radius; k <= radius; k++ {
				jj := reflect(j+k, ny)
				acc += kernel[k+radius] * src.At(i, jj)
			}
			dst.Set(i, j, acc)
		}
	}
}

// blurWorkers bounds the convolution fan-out by the actual work volume
// (cells x kernel taps) so small blurs stay serial. Deterministic: depends
// only on the blur dimensions.
func blurWorkers(requested, nx, ny, radius int) int {
	w := par.Workers(requested)
	if limit := nx * ny * (2*radius + 1) / 16384; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

func reflect(i, n int) int {
	for i < 0 || i >= n {
		if i < 0 {
			i = -i - 1
		}
		if i >= n {
			i = 2*n - i - 1
		}
	}
	return i
}
