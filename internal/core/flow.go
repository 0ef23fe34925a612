package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/thermal"
	"repro/internal/timing"
	"repro/internal/tsv"
	"repro/internal/volt"
)

// Run executes one full floorplanning flow (Fig. 3) on the design:
// annealing with the fast thermal analysis in the loop, signal-TSV planning,
// final voltage assignment with timing repair, detailed thermal verification
// of the leakage correlation, and — in TSC mode — the activity-sampling /
// dummy-TSV post-processing stage.
func Run(des *netlist.Design, cfg Config) (*Result, error) {
	return RunContext(context.Background(), des, cfg)
}

// RunContext is Run with cooperative cancellation: ctx is polled between
// annealing moves, thermal-solver sweeps, and activity samples, and the flow
// returns ctx.Err() promptly once it is done. A cancelled run returns no
// partial Result.
func RunContext(ctx context.Context, des *netlist.Design, cfg Config) (*Result, error) {
	cfg.defaults()
	if err := des.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid design: %w", err)
	}
	if des.Dies < 2 {
		return nil, fmt.Errorf("core: the flow needs a stacked design (>= 2 dies), got %d", des.Dies)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//lint:wallclock RuntimeSec is a reporting stat; golden compares exclude it
	started := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Fast-analysis calibration (one impulse solve per die).
	thermCfg := thermal.DefaultConfig(cfg.GridN, cfg.GridN, des.OutlineW, des.OutlineH, des.Dies)
	fast := thermal.CalibrateFastWorkers(thermCfg, cfg.Parallelism)

	// Annealing with the fast thermal analysis in the loop.
	best, evStats, err := runAnneal(ctx, des, &cfg, rng, fast)
	if err != nil {
		return nil, err
	}
	layout := best.Pack()

	res := &Result{
		Design:    layout.Design,
		Layout:    layout,
		EvalStats: evStats,
		started:   started,
	}
	if err := finalize(ctx, res, &cfg, rng); err != nil {
		return nil, err
	}
	res.Metrics.RuntimeSec = time.Since(started).Seconds() //lint:wallclock RuntimeSec is a reporting stat; golden compares exclude it
	cfg.emit(ProgressEvent{Stage: StageDone})
	return res, nil
}

// emit delivers a progress event to the configured callback, if any.
func (c *Config) emit(ev ProgressEvent) {
	if c.Progress != nil {
		c.Progress(ev)
	}
}

// finalize plans TSVs, assigns voltages, runs detailed verification, and (in
// TSC mode) the post-processing stage, filling in the metrics.
func finalize(ctx context.Context, res *Result, cfg *Config, rng *rand.Rand) error {
	l := res.Layout
	cfg.emit(ProgressEvent{Stage: StageFinalize})

	// Signal TSVs for every cross-die net.
	plan := tsv.PlanSignals(l, tsv.Options{})
	res.TSVs = plan

	// Final voltage assignment with timing repair.
	ref := timing.Analyze(l, nil, *cfg.TimingParams)
	vcfg := volt.Config{TargetFactor: cfg.VoltTargetFactor}
	if cfg.Mode == TSCAware {
		vcfg.Mode = volt.TSCAware
	}
	asg := volt.Assign(l, ref, vcfg)
	sta := volt.Repair(l, asg, *cfg.TimingParams, vcfg)
	res.Assignment = asg

	// Detailed thermal verification with all TSVs applied.
	stack := thermal.NewStack(thermal.DefaultConfig(cfg.GridN, cfg.GridN, l.OutlineW, l.OutlineH, l.Dies))
	powers := scaledPowers(l, asg.PowerScale)
	maps := make([]*geom.Grid, l.Dies)
	for d := 0; d < l.Dies; d++ {
		maps[d] = l.PowerMap(d, cfg.GridN, cfg.GridN, powers)
		stack.SetDiePower(d, maps[d])
	}
	applyTSVs(stack, plan, cfg.GridN)
	sol, solStats := stack.SolveSteady(nil, thermal.SolverOpts{Ctx: ctx, Workers: cfg.Parallelism})
	st := &res.EvalStats
	st.SolverSweeps, st.SolverResidual, st.SolverConverged = solStats.Sweeps, solStats.Residual, solStats.Converged
	if err := ctx.Err(); err != nil {
		return err
	}

	res.Stack = stack
	res.PowerMaps = maps
	res.TempMaps = make([]*geom.Grid, l.Dies)
	for d := 0; d < l.Dies; d++ {
		res.TempMaps[d] = sol.DieTemp(d)
	}

	m := &res.Metrics
	m.PerDie = make([]DieMetrics, l.Dies)
	for d := 0; d < l.Dies; d++ {
		m.PerDie[d].R = leakage.Pearson(maps[d], res.TempMaps[d])
		m.PerDie[d].S = leakage.SpatialEntropy(maps[d])
	}
	syncDieAliases(m)
	m.PowerW = asg.TotalPower
	m.CriticalNS = sta.Critical
	m.WirelengthM = l.HPWL(cfg.TimingParams.VertLen) * 1e-6 // um -> m
	m.PeakTempK = sol.Peak()
	m.SignalTSVs = plan.SignalCount()
	m.VoltageVolumes = len(asg.Volumes)

	// Post-processing: destabilize the leakage correlation by inserting
	// dummy thermal TSVs at the most correlation-stable bins (Sec. 6.2).
	if *cfg.PostProcess {
		if err := postProcess(ctx, res, cfg, rng, sol); err != nil {
			return err
		}
	} else {
		m.PostCorrelationBefore = m.R1
		m.PostCorrelationAfter = m.R1
	}
	m.DummyTSVs = res.TSVs.DummyCount()
	return nil
}

// applyTSVs installs the plan's per-gap copper maps into the stack.
func applyTSVs(stack *thermal.Stack, plan *tsv.Plan, n int) {
	for g := 0; g < stack.Gaps(); g++ {
		stack.SetTSVGapMap(g, plan.CuFractionMapGap(g, n, n))
	}
}

// syncDieAliases refreshes the two-die alias fields from PerDie.
func syncDieAliases(m *Metrics) {
	if len(m.PerDie) == 0 {
		return
	}
	bottom := m.PerDie[0]
	top := m.PerDie[len(m.PerDie)-1]
	m.R1, m.S1 = bottom.R, bottom.S
	m.R2, m.S2 = top.R, top.S
	m.SVF1, m.MeanStability1 = bottom.SVF, bottom.MeanStability
	m.SVF2, m.MeanStability2 = top.SVF, top.MeanStability
}
