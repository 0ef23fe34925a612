package tscfp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Grid describes a parameter sweep: the cross product of Seeds × Modes ×
// GridNs × Iterations over one design, each cell one independent flow run.
// Empty axes default to a single element (seed 1, TSCAware, flow-default
// grid and budget), so the zero Grid with only Design set runs one cell.
type Grid struct {
	// Design is floorplanned in every cell. Required.
	Design *Design
	// Seeds are the random seeds to sweep (see WithSeed's determinism
	// contract: per-cell results are independent of worker scheduling).
	Seeds []int64
	// Modes are the floorplanning modes to sweep.
	Modes []Mode
	// GridNs are the thermal/leakage grid resolutions to sweep (0 = flow
	// default).
	GridNs []int
	// Iterations are the annealing budgets to sweep (0 = flow default).
	Iterations []int
	// Options are applied to every cell before the cell's own axes, so
	// per-cell knobs win over a conflicting shared option.
	Options []Option
}

// Cell identifies one point of the grid. Index is the cell's position in
// Cells() order (seeds outermost, iterations innermost) and in Sweep's
// result slice.
type Cell struct {
	Index      int   `json:"index"`
	Seed       int64 `json:"seed"`
	Mode       Mode  `json:"mode"`
	GridN      int   `json:"grid_n"`
	Iterations int   `json:"iterations"`
}

// Options returns the cell as flow options, to be appended after the grid's
// shared options: the cell's mode, checked as WithMode checks it, and
// Overlay applied to the knobs the shared options set.
func (c Cell) Options() []Option {
	return []Option{WithMode(c.Mode), func(s *settings) { s.RunOptions = c.Overlay(s.RunOptions) }}
}

// Overlay returns base with the cell's axes applied: Seed and Mode always,
// GridN and Iterations when positive (zero keeps the base's value). Options
// applies the same overlay, so a cell's run and the RunOptions a serving
// layer content-addresses the cell by come from this one function.
func (c Cell) Overlay(base RunOptions) RunOptions {
	base.Seed, base.Mode = c.Seed, string(c.Mode)
	if c.GridN > 0 {
		base.GridN = c.GridN
	}
	if c.Iterations > 0 {
		base.Iterations = c.Iterations
	}
	return base
}

// Cells enumerates the grid in deterministic order: seeds outermost, then
// modes, grid resolutions, and annealing budgets.
func (g *Grid) Cells() []Cell {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	modes := g.Modes
	if len(modes) == 0 {
		modes = []Mode{TSCAware}
	}
	gridNs := g.GridNs
	if len(gridNs) == 0 {
		gridNs = []int{0}
	}
	iters := g.Iterations
	if len(iters) == 0 {
		iters = []int{0}
	}
	var cells []Cell
	for _, seed := range seeds {
		for _, mode := range modes {
			for _, gn := range gridNs {
				for _, it := range iters {
					cells = append(cells, Cell{
						Index: len(cells), Seed: seed, Mode: mode,
						GridN: gn, Iterations: it,
					})
				}
			}
		}
	}
	return cells
}

// SweepResult pairs one grid cell with its outcome. Exactly one of Result
// and Err is non-nil; a cancelled sweep reports ctx.Err() for every cell
// that did not complete.
type SweepResult struct {
	Cell   Cell
	Result *Result
	Err    error
}

// sweepSettings holds the sweep-level knobs.
type sweepSettings struct {
	workers int
}

// SweepOption configures Sweep and Stream, independently of the per-flow
// Options carried by the Grid.
type SweepOption func(*sweepSettings)

// WithWorkers sets the worker-pool size. Values < 1 (and the default)
// select GOMAXPROCS workers; the pool never exceeds the cell count.
func WithWorkers(n int) SweepOption {
	return func(s *sweepSettings) { s.workers = n }
}

// Sweep runs every cell of the grid on a worker pool and returns the
// results ordered by Cell.Index. Per-cell failures (including cancellation
// and a panic in the cell's flow) are reported in SweepResult.Err; the
// returned error is non-nil only for a malformed grid. Each worker runs
// independent flows, so peak memory scales with the worker count.
func Sweep(ctx context.Context, grid Grid, opts ...SweepOption) ([]SweepResult, error) {
	ch, err := Stream(ctx, grid, opts...)
	if err != nil {
		return nil, err
	}
	var out []SweepResult
	for sr := range ch {
		out = append(out, sr)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cell.Index < out[b].Cell.Index })
	return out, nil
}

// Stream is Sweep's streaming form: it returns immediately with a channel
// that yields one SweepResult per cell as workers finish (completion order,
// not grid order) and is closed once all cells are accounted for. On
// cancellation, cells that have not finished drain out with Err set to
// ctx.Err(), so consumers always observe exactly len(grid.Cells()) sends.
func Stream(ctx context.Context, grid Grid, opts ...SweepOption) (<-chan SweepResult, error) {
	if grid.Design == nil || grid.Design.d == nil {
		return nil, fmt.Errorf("tscfp: sweep grid has no design")
	}
	cells := grid.Cells()
	// Build every flow up front so option errors surface before any work
	// starts (and before the caller commits to draining the channel).
	flows := make([]*Flow, len(cells))
	for i, c := range cells {
		f, err := NewFlow(grid.Design, append(append([]Option(nil), grid.Options...), c.Options()...)...)
		if err != nil {
			return nil, fmt.Errorf("tscfp: sweep cell %d (seed %d, %s): %w", c.Index, c.Seed, c.Mode, err)
		}
		flows[i] = f
	}

	var s sweepSettings
	for _, opt := range opts {
		opt(&s)
	}
	workers := s.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	// A multi-worker pool saturates the CPU with whole cells; nesting each
	// cell's solver/blur fan-out under it would oversubscribe the machine
	// (workers × GOMAXPROCS runnable goroutines). Default pooled cells to
	// the serial per-run path unless WithParallelism was given explicitly.
	// Results are identical either way (see WithParallelism).
	if workers > 1 {
		for _, f := range flows {
			if !f.parSet {
				f.cfg.Parallelism = 1
			}
		}
	}

	// Buffered to the cell count so neither workers nor the cancellation
	// drain ever block on a consumer that stopped reading early — an
	// abandoned Stream finishes its in-flight cells and all goroutines exit.
	out := make(chan SweepResult, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				out <- runCell(ctx, flows[i], cells[i])
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range cells {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Report the never-started cells instead of dropping them.
				// Workers are still ranging over jobs here (it closes when
				// this goroutine returns), so out cannot be closed yet.
				for j := i; j < len(cells); j++ {
					out <- SweepResult{Cell: cells[j], Err: ctx.Err()}
				}
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// runCell runs one sweep cell on a Stream worker. A panic in the cell's flow
// becomes the cell's error, so the worker — and the process — keep serving
// the other cells.
func runCell(ctx context.Context, f *Flow, c Cell) (sr SweepResult) {
	sr.Cell = c
	defer func() {
		if v := recover(); v != nil {
			sr.Err = fmt.Errorf("tscfp: sweep cell %d (seed %d, %s) panicked: %v", c.Index, c.Seed, c.Mode, v)
		}
	}()
	sr.Result, sr.Err = f.Run(ctx)
	return sr
}
