package tscfp

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/report"
	"repro/internal/tsv"
)

// Flow is one configured floorplanning run. A Flow is immutable after
// NewFlow and safe to Run multiple times (each Run is independent) or from
// multiple goroutines.
type Flow struct {
	design   *Design
	mode     Mode
	cfg      core.Config
	progress func(Event)
	// parSet records that the knob set gave Parallelism explicitly
	// (WithParallelism or RunOptions.Parallelism); Sweep respects it when
	// defaulting pooled cells to serial per-run parallelism.
	parSet bool
}

// NewFlow binds a design to a set of options. Validation happens here, not
// in Run, so a sweep over many cells fails fast: the design must have
// modules to place and a stack of at least two dies, the knobs the options
// set are checked by RunOptions.Canonical, and the protected-module indices
// against the design.
func NewFlow(design *Design, opts ...Option) (*Flow, error) {
	if design == nil || design.d == nil {
		return nil, fmt.Errorf("tscfp: nil design")
	}
	if design.NumModules() == 0 {
		return nil, fmt.Errorf("tscfp: design %q has no modules to floorplan", design.Name())
	}
	if design.Dies() < 2 {
		return nil, fmt.Errorf("tscfp: design %q has %d die(s); the flow needs a stack of at least 2", design.Name(), design.Dies())
	}
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	c, err := s.RunOptions.Canonical()
	if err != nil {
		return nil, err
	}
	for _, mi := range c.ProtectedModules {
		if mi < 0 || mi >= design.NumModules() {
			return nil, fmt.Errorf("tscfp: protected_modules index %d outside [0, %d)", mi, design.NumModules())
		}
	}
	cfg := c.config()
	cfg.CostCrossCheck = s.crossCheck
	mode := Mode(c.Mode)
	if mode == "" {
		mode = TSCAware
	}
	return &Flow{design: design, mode: mode, cfg: cfg, progress: s.progress,
		parSet: c.Parallelism != nil}, nil
}

// Mode returns the flow's configured mode.
func (f *Flow) Mode() Mode { return f.mode }

// Design returns the flow's design.
func (f *Flow) Design() *Design { return f.design }

// Run executes the full flow: annealing with the fast thermal analysis in
// the loop, signal-TSV planning, voltage assignment with timing repair,
// detailed thermal verification, and — in TSC-aware mode — the dummy-TSV
// post-processing stage. Cancellation of ctx is honored between annealing
// moves and thermal-solver sweeps; a cancelled Run returns ctx.Err() and no
// partial Result.
func (f *Flow) Run(ctx context.Context) (*Result, error) {
	cfg := f.cfg // per-run copy: core mutates defaults in place
	cfg.Progress = f.progress
	res, err := core.RunContext(ctx, f.design.d, cfg)
	if err != nil {
		return nil, err
	}
	return newResult(res, f.mode, f.cfg.Seed), nil
}

// Run is the one-call convenience wrapper: NewFlow + Flow.Run.
func Run(ctx context.Context, design *Design, opts ...Option) (*Result, error) {
	f, err := NewFlow(design, opts...)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx)
}

// newResult snapshots a completed internal run into the public, JSON-stable
// Result shape.
func newResult(res *core.Result, mode Mode, seed int64) *Result {
	r := &Result{
		Benchmark: res.Design.Name,
		Mode:      mode,
		Seed:      seed,
		Dies:      res.Layout.Dies,
		OutlineW:  res.Layout.OutlineW,
		OutlineH:  res.Layout.OutlineH,
		GridN:     res.PowerMaps[0].NX,
		Legal:     res.Layout.Legal(),
		Metrics:   res.Metrics,
		Stats:     res.EvalStats.RunStats,
		raw:       res,
	}
	r.Metrics.PerDie = slices.Clone(res.Metrics.PerDie)
	for mi, m := range res.Design.Modules {
		rect := res.Layout.Rects[mi]
		r.Modules = append(r.Modules, PlacedModule{
			Name: m.Name, Die: res.Layout.DieOf[mi],
			X: rect.X, Y: rect.Y, W: rect.W, H: rect.H,
			PowerW:    m.Power * res.Assignment.PowerScale[mi],
			VoltageV:  res.Assignment.LevelOf[mi].V,
			Sensitive: m.Sensitive,
		})
	}
	for _, v := range res.TSVs.TSVs {
		r.TSVs = append(r.TSVs, TSV{
			Kind: v.Kind.String(), X: v.Pos.X, Y: v.Pos.Y,
			Net: v.Net, Count: v.Count, Gap: v.Gap,
		})
	}
	for _, v := range res.Assignment.Volumes {
		r.Volumes = append(r.Volumes, VoltageVolume{
			Modules: append([]int(nil), v.Modules...), VoltageV: v.Level.V,
		})
	}
	for d := 0; d < res.Layout.Dies; d++ {
		r.PowerMaps = append(r.PowerMaps, append([]float64(nil), res.PowerMaps[d].Data...))
		r.TempMaps = append(r.TempMaps, append([]float64(nil), res.TempMaps[d].Data...))
	}
	return r
}

// PowerGrid reconstructs die d's power map (W per cell) from the snapshot.
func (r *Result) PowerGrid(d int) (*geom.Grid, error) { return r.grid(r.PowerMaps, d) }

// TempGrid reconstructs die d's temperature map (K) from the snapshot.
func (r *Result) TempGrid(d int) (*geom.Grid, error) { return r.grid(r.TempMaps, d) }

func (r *Result) grid(maps [][]float64, d int) (*geom.Grid, error) {
	if d < 0 || d >= len(maps) {
		return nil, fmt.Errorf("tscfp: die %d out of range", d)
	}
	if len(maps[d]) != r.GridN*r.GridN {
		return nil, fmt.Errorf("tscfp: die %d map has %d cells, want %d", d, len(maps[d]), r.GridN*r.GridN)
	}
	g := geom.NewGrid(r.GridN, r.GridN)
	copy(g.Data, maps[d])
	return g, nil
}

// FloorplanASCII renders die d's floorplan as terminal ASCII art. It needs
// the live layout and returns "" on a Result decoded from JSON.
func (r *Result) FloorplanASCII(d, width int) string {
	if r.raw == nil {
		return ""
	}
	return report.RenderFloorplan(r.raw.Layout, d, width)
}

// PowerHeatmap renders die d's power map as ASCII art, with TSV positions
// overlaid ('o' single vias, 'O' groups). Works on decoded Results too.
func (r *Result) PowerHeatmap(d int) (string, error) {
	g, err := r.PowerGrid(d)
	if err != nil {
		return "", err
	}
	return report.HeatmapWithTSVs(g, r.tsvPlan()), nil
}

// TempHeatmap renders die d's temperature map as ASCII art.
func (r *Result) TempHeatmap(d int) (string, error) {
	g, err := r.TempGrid(d)
	if err != nil {
		return "", err
	}
	return report.Heatmap(g), nil
}

// tsvPlan rebuilds a plan view of the snapshot TSVs for rendering.
func (r *Result) tsvPlan() *tsv.Plan {
	if r.raw != nil {
		return r.raw.TSVs
	}
	p := &tsv.Plan{OutlineW: r.OutlineW, OutlineH: r.OutlineH}
	for _, v := range r.TSVs {
		kind := tsv.Signal
		if v.Kind == tsv.Dummy.String() {
			kind = tsv.Dummy
		}
		p.TSVs = append(p.TSVs, tsv.TSV{
			Kind: kind, Pos: geom.Point{X: v.X, Y: v.Y},
			Net: v.Net, Count: v.Count, Gap: v.Gap,
		})
	}
	return p
}
