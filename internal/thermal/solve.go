package thermal

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/par"
)

// Solution holds a solved temperature field in Kelvin.
type Solution struct {
	stack *Stack
	T     []float64
}

// Stats reports solver effort and convergence.
type Stats struct {
	Sweeps    int
	Residual  float64 // final max update in K
	Converged bool
}

// SolverOpts tunes the iterative solvers. The SOR relaxation factor is not
// an option: both solvers take sorOmega's value for the grid.
type SolverOpts struct {
	Tol       float64 // max per-sweep update in K; default 1e-5
	MaxSweeps int     // default 20000; 4000 per step in SolveTransient
	// Workers bounds the goroutines fanned out per red-black half-sweep.
	// 0 selects GOMAXPROCS; 1 forces the serial path. The solve result is
	// byte-identical for every worker count: red-black ordering makes each
	// half-sweep's updates independent of execution order.
	Workers int
	// Ctx, when non-nil, is polled between SolveSteady's sweeps; on
	// cancellation the solver returns its current iterate with
	// Stats.Converged false. Callers that thread a context must check it
	// after the solve.
	Ctx context.Context
}

func (o *SolverOpts) defaults() {
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 20000
	}
}

// sorOmega is the SOR relaxation factor for an nx x ny lateral grid: the
// optimal factor for a Poisson-like problem on the larger side; the ambient
// sink term only improves conditioning.
func sorOmega(nx, ny int) float64 {
	n := nx
	if ny > n {
		n = ny
	}
	return 2.0 / (1.0 + math.Sin(math.Pi/float64(n)))
}

// SolveSteady solves the steady-state heat equation. A previous solution may
// be passed to warm-start the iteration (nil starts from ambient).
func (s *Stack) SolveSteady(prev *Solution, opts SolverOpts) (*Solution, Stats) {
	if s.dirty {
		s.rebuild()
	}
	opts.defaults()
	n := s.NumCells()
	T := make([]float64, n)
	if prev != nil && len(prev.T) == n {
		copy(T, prev.T)
	} else {
		for i := range T {
			T[i] = s.Cfg.Ambient
		}
	}
	stats := s.sor(T, opts)
	return &Solution{stack: s, T: T}, stats
}

// sor runs red-black SOR sweeps in place until converged.
func (s *Stack) sor(T []float64, opts SolverOpts) Stats {
	rhs := make([]float64, s.NumCells())
	amb := s.Cfg.Ambient
	for id := range rhs {
		rhs[id] = s.power[id] + s.gAmb[id]*amb
	}
	workers := s.solveWorkers(opts.Workers)
	omega := sorOmega(s.nx, s.ny)
	var st Stats
	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return st
		}
		maxUpd := s.rbSweep(T, rhs, nil, omega, workers)
		st.Sweeps = sweep + 1
		st.Residual = maxUpd
		if maxUpd < opts.Tol {
			st.Converged = true
			return st
		}
	}
	return st
}

// solveWorkers bounds the fan-out so small stacks stay on the serial path:
// below a few thousand cells the per-sweep goroutine overhead outweighs the
// work. The bound depends only on the problem size, never on the scheduler,
// so results stay deterministic.
func (s *Stack) solveWorkers(requested int) int {
	w := par.Workers(requested)
	if limit := s.NumCells() / 2048; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// rbSweep runs one red-black SOR sweep (red half, then black half) over T
// and returns the largest absolute cell update. Cells are colored by
// (i+j+l) parity; every neighbour of a cell has the opposite color, so all
// reads within a half-sweep are of values not written by it. That makes the
// update order immaterial and the result byte-identical for any worker
// count. extraDiag, when non-nil, is added per cell to the operator diagonal
// (the implicit-Euler capacitance term of the transient solver).
func (s *Stack) rbSweep(T, rhs, extraDiag []float64, w float64, workers int) float64 {
	nx, ny, nl := s.nx, s.ny, s.nl
	plane := nx * ny
	rows := nl * ny
	maxUpd := 0.0
	var mu sync.Mutex
	for color := 0; color < 2; color++ {
		par.For(workers, rows, func(rlo, rhi int) {
			m := 0.0
			for r := rlo; r < rhi; r++ {
				l := r / ny
				j := r - l*ny
				base := r * nx
				for i := (color + j + l) & 1; i < nx; i += 2 {
					id := base + i
					num := rhs[id]
					if i > 0 {
						num += s.gE[id-1] * T[id-1]
					}
					if i+1 < nx {
						num += s.gE[id] * T[id+1]
					}
					if j > 0 {
						num += s.gN[id-nx] * T[id-nx]
					}
					if j+1 < ny {
						num += s.gN[id] * T[id+nx]
					}
					if l > 0 {
						num += s.gU[id-plane] * T[id-plane]
					}
					if l+1 < nl {
						num += s.gU[id] * T[id+plane]
					}
					den := s.diag[id]
					if extraDiag != nil {
						den += extraDiag[id]
					}
					tNew := (1-w)*T[id] + w*num/den
					if upd := math.Abs(tNew - T[id]); upd > m {
						m = upd
					}
					T[id] = tNew
				}
			}
			mu.Lock()
			if m > maxUpd {
				maxUpd = m
			}
			mu.Unlock()
		})
	}
	return maxUpd
}

// SolveTransient advances the field from an initial solution (nil = ambient)
// by `steps` implicit-Euler steps of length dt seconds. The optional powerAt
// callback may rescale the injected power before each step (it receives the
// step index and must return a multiplier applied to the installed power
// maps); nil keeps power constant. Returns the trajectory of solutions
// sampled every `sample` steps (sample<=0 records only the final state).
// opts bounds each step's SOR iteration; its zero MaxSweeps is 4000 per
// step, and its Ctx is not polled.
func (s *Stack) SolveTransient(init *Solution, dt float64, steps, sample int, powerAt func(step int) float64, opts SolverOpts) []*Solution {
	if s.dirty {
		s.rebuild()
	}
	n := s.NumCells()
	T := make([]float64, n)
	if init != nil && len(init.T) == n {
		copy(T, init.T)
	} else {
		for i := range T {
			T[i] = s.Cfg.Ambient
		}
	}
	// Per-cell thermal capacitance over dt.
	cOverDT := make([]float64, n)
	for l := 0; l < s.nl; l++ {
		c := s.Layers[l].Cap * s.area * s.Layers[l].Thickness / dt
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				cOverDT[s.idx(l, j, i)] = c
			}
		}
	}
	basePower := append([]float64(nil), s.power...)
	defer copy(s.power, basePower)

	var out []*Solution
	if opts.MaxSweeps == 0 {
		opts.MaxSweeps = 4000
	}
	opts.defaults()
	workers := s.solveWorkers(opts.Workers)
	omega := sorOmega(s.nx, s.ny)
	amb := s.Cfg.Ambient
	rhs := make([]float64, n)
	for step := 0; step < steps; step++ {
		scale := 1.0
		if powerAt != nil {
			scale = powerAt(step)
		}
		// Implicit Euler: (C/dt + G) T_new = C/dt T_old + q. Reuse the SOR
		// kernel by treating C/dt as an extra ambient-like link toward T_old.
		for id := range rhs {
			rhs[id] = basePower[id]*scale + s.gAmb[id]*amb + cOverDT[id]*T[id]
		}
		for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
			if s.rbSweep(T, rhs, cOverDT, omega, workers) < opts.Tol {
				break
			}
		}
		if sample > 0 && (step+1)%sample == 0 {
			out = append(out, &Solution{stack: s, T: append([]float64(nil), T...)})
		}
	}
	if sample <= 0 {
		out = append(out, &Solution{stack: s, T: T})
	}
	return out
}

// DieTemp returns the temperature map (K) of die d's active layer.
func (sol *Solution) DieTemp(d int) *geom.Grid {
	s := sol.stack
	l := s.activeLayer(d)
	g := geom.NewGrid(s.nx, s.ny)
	copy(g.Data, sol.T[s.idx(l, 0, 0):s.idx(l, 0, 0)+s.nx*s.ny])
	return g
}

// LayerTemp returns the temperature map of an arbitrary layer.
func (sol *Solution) LayerTemp(l int) *geom.Grid {
	s := sol.stack
	if l < 0 || l >= s.nl {
		panic(fmt.Sprintf("thermal: layer %d out of range", l))
	}
	g := geom.NewGrid(s.nx, s.ny)
	copy(g.Data, sol.T[s.idx(l, 0, 0):s.idx(l, 0, 0)+s.nx*s.ny])
	return g
}

// Peak returns the hottest temperature anywhere in the stack.
func (sol *Solution) Peak() float64 {
	m := math.Inf(-1)
	for _, t := range sol.T {
		if t > m {
			m = t
		}
	}
	return m
}

// EnergyBalance returns (powerIn, powerOut): the injected power and the heat
// leaving through the ambient links. At a converged steady state the two
// match to solver tolerance.
func (sol *Solution) EnergyBalance() (in, out float64) {
	s := sol.stack
	for id, p := range s.power {
		in += p
		if s.gAmb[id] > 0 {
			out += s.gAmb[id] * (sol.T[id] - s.Cfg.Ambient)
		}
	}
	return in, out
}
