package tscfp

import (
	"fmt"

	"repro/internal/core"
)

// Mode selects the experimental setup (Sec. 7 of the paper).
type Mode string

const (
	// PowerAware is the competitive baseline: packing, wirelength, delay,
	// peak temperature, and voltage assignment optimized together.
	PowerAware Mode = "power-aware"
	// TSCAware additionally minimizes the power/thermal correlation (Eq. 1)
	// and the spatial entropy of the power maps (Eq. 3), uses the
	// TSC-oriented voltage-assignment objective, and runs the dummy-TSV
	// post-processing of Sec. 6.2.
	TSCAware Mode = "tsc-aware"
)

// core maps a canonical mode onto the flow's enum. The empty mode is the
// default, TSCAware.
func (m Mode) core() core.Mode {
	if m == PowerAware {
		return core.PowerAware
	}
	return core.TSCAware
}

// ParseMode accepts the common spellings ("pa", "power-aware", "tsc",
// "tsc-aware") used by the CLI flags. The empty string is an error, not a
// default — an unset variable should not silently pick a setup.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "pa", "power-aware":
		return PowerAware, nil
	case "tsc", "tsc-aware":
		return TSCAware, nil
	default:
		return "", fmt.Errorf("tscfp: unknown mode %q (want pa or tsc)", s)
	}
}

// PostCriterion selects the correlation watched by the dummy-TSV stop rule.
type PostCriterion string

const (
	// BottomDie accepts insertions while |r_1| drops (default; the bottom
	// die is the protectable one).
	BottomDie PostCriterion = "bottom-die"
	// AllDies accepts insertions while the mean |r_d| over dies drops.
	AllDies PostCriterion = "all-dies"
)

// Weights are the multi-objective cost weights; see core's documentation for
// the paper grounding. Start from DefaultWeights when adjusting one term.
type Weights = core.Weights

// Stage identifies one phase of the flow in progress events.
type Stage = core.Stage

const (
	// StageAnneal is the simulated-annealing floorplanning search.
	StageAnneal = core.StageAnneal
	// StageFinalize covers TSV planning, voltage assignment, and detailed
	// thermal verification.
	StageFinalize = core.StageFinalize
	// StageSampling is the activity-sampling loop of post-processing.
	StageSampling = core.StageSampling
	// StagePostProcess is the iterative dummy-TSV insertion (Sec. 6.2).
	StagePostProcess = core.StagePostProcess
	// StageDone fires once, after metrics are final.
	StageDone = core.StageDone
)

// Event is one progress update from a running flow. Done/Total count
// stage-local units (annealing moves, activity samples, dummy groups); Total
// is 0 when the stage has no meaningful denominator. Cost carries the best
// annealing cost during StageAnneal and the watched correlation during
// StagePostProcess.
//
// Event marshals to stable JSON, so serving layers (tscfpd's SSE stream)
// forward flow progress verbatim instead of mirroring it into an ad-hoc
// wire struct.
type Event = core.ProgressEvent

// settings accumulates option values before a Flow is built: the knob set
// every With* option writes, plus the callback and the debug switch that
// have no wire form.
type settings struct {
	RunOptions
	progress   func(Event)
	crossCheck bool  // WithCostCrossCheck
	err        error // WithMode's eager spelling check
}

// Option configures a Flow (and, through Grid.Options, every Sweep cell).
// Each option sets one field of the RunOptions knob set, except
// WithProgress and WithCostCrossCheck, which have no wire form. NewFlow then validates the knob set through RunOptions.Canonical,
// so a negative count or a NaN/±Inf float fails there, naming the knob.
type Option func(*settings)

// WithMode selects power-aware or TSC-aware floorplanning, in any ParseMode
// spelling ("pa" and "tsc" included). Default TSCAware. Unlike the other
// options it checks its argument at once: an explicit empty mode is an
// error at NewFlow, not the default, since it would mislabel results.
func WithMode(m Mode) Option {
	return func(s *settings) {
		if _, err := ParseMode(string(m)); err != nil && s.err == nil {
			s.err = err
		}
		s.Mode = string(m)
	}
}

// WithSeed sets the seed driving every stochastic stage of the flow.
//
// Determinism contract: the flow never touches math/rand's global source —
// all randomness flows from rand.New(rand.NewSource(seed)) created per run.
// The same Design, seed, and options therefore produce an identical Result
// (byte-identical JSON, runtime aside) on every run, independent of other
// goroutines, of previous runs, and of Sweep worker scheduling.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.Seed = seed }
}

// WithIterations sets the simulated-annealing budget. Zero selects the
// default of 3000 (it does not disable annealing).
func WithIterations(n int) Option {
	return func(s *settings) { s.Iterations = n }
}

// WithGridN sets the lateral resolution of the thermal and leakage grids.
// Zero selects the default of 32.
func WithGridN(n int) Option {
	return func(s *settings) { s.GridN = n }
}

// WithActivitySamples sets m of Eq. 2 (the paper uses 100). Zero selects
// the default of 100 (it does not skip the sampling stage; use
// WithPostProcess(false) for that).
func WithActivitySamples(n int) Option {
	return func(s *settings) { s.ActivitySamples = n }
}

// WithActivitySigma sets the relative power sigma of the activity model
// (the paper uses 0.10).
func WithActivitySigma(sigma float64) Option {
	return func(s *settings) { s.ActivitySigma = sigma }
}

// WithPostProcess forces the dummy-TSV insertion stage on or off,
// replacing the default of on-in-TSC-mode, off-in-power-aware-mode.
func WithPostProcess(enabled bool) Option {
	return func(s *settings) { s.PostProcess = &enabled }
}

// WithPostCriterion selects the correlation watched by the dummy-TSV stop
// rule. Default BottomDie; the empty criterion selects the default, as an
// empty wire field does.
func WithPostCriterion(c PostCriterion) Option {
	return func(s *settings) { s.PostCriterion = string(c) }
}

// WithProtectedModules switches post-processing to the Sec. 7.1 adaptation:
// dummy TSVs target only the bins covered by these (security-critical)
// modules. Indices refer to Design.Modules; NewFlow rejects any outside
// [0, NumModules).
func WithProtectedModules(modules ...int) Option {
	return func(s *settings) { s.ProtectedModules = modules }
}

// WithMaxDummyGroups bounds post-processing insertions. Zero selects the
// default of 64; to disable insertions entirely use WithPostProcess(false).
func WithMaxDummyGroups(n int) Option {
	return func(s *settings) { s.MaxDummyGroups = n }
}

// WithDummyViasPerGroup sets the island size of each inserted dummy group.
// Zero selects the default of 8.
func WithDummyViasPerGroup(n int) Option {
	return func(s *settings) { s.DummyViasPerGroup = n }
}

// WithVoltEvery re-runs voltage assignment every k-th accepted evaluation.
// Zero selects the default of 10.
func WithVoltEvery(k int) Option {
	return func(s *settings) { s.VoltEvery = k }
}

// WithVoltTargetFactor relaxes the timing target for voltage assignment.
// Default 1.15.
func WithVoltTargetFactor(f float64) Option {
	return func(s *settings) { s.VoltTargetFactor = f }
}

// WithWeights overrides the multi-objective cost weights. The zero value of
// any field is taken literally (a zero weight disables that term), so start
// from DefaultWeights when adjusting a single knob.
func WithWeights(w Weights) Option {
	return func(s *settings) { s.Weights = &w }
}

// DefaultWeights returns the mode's default cost weights. It accepts every
// ParseMode spelling and panics on an unknown mode — a silent fallback here
// would hand a caller the wrong tuning baseline.
func DefaultWeights(m Mode) Weights {
	pm, err := ParseMode(string(m))
	if err != nil {
		panic(err)
	}
	return core.DefaultWeights(pm.core())
}

// WithProgress installs a per-stage progress callback. The callback runs
// synchronously on the flow goroutine (each Sweep worker has its own), so it
// must be cheap and, under Sweep, safe for concurrent invocation.
func WithProgress(fn func(Event)) Option {
	return func(s *settings) { s.progress = fn }
}

// WithParallelism bounds the worker goroutines fanned out by the detailed
// thermal solver's red-black SOR sweeps and the fast estimator's separable
// convolutions. 0 (the default) selects GOMAXPROCS; 1 forces the serial
// path. Results are byte-identical for every setting — parallelism never
// perturbs determinism (see WithSeed).
//
// Under Sweep/Stream the unset default is 1, not GOMAXPROCS: the worker
// pool already saturates the CPU with whole cells, and nesting per-run
// fan-out under pool-level fan-out would oversubscribe it. An explicit
// WithParallelism wins over that adjustment.
func WithParallelism(n int) Option {
	return func(s *settings) { s.Parallelism = &n }
}

// WithReplicas runs k tempered annealing chains (replica exchange / parallel
// tempering): each replica anneals on its own RNG stream at its rung of a
// geometric temperature ladder, neighbours periodically swap temperatures by
// the Metropolis criterion, and the best replica's floorplan feeds the rest
// of the flow. 0 and 1 (the default) select one replica; with speculation
// off too, that is the serial chain, which stays bit-identical to earlier
// releases at a fixed seed.
//
// k >= 2 is its own deterministic contract: a fixed (seed, replicas,
// speculation) triple yields a byte-identical Result for any GOMAXPROCS, but
// the walk differs from the serial one — replicas trade reproducibility of
// the historical stream for quality per wall-clock second. Under replicas
// the per-run thermal Parallelism defaults to 1 (the chains are the
// parallelism); an explicit WithParallelism wins.
func WithReplicas(k int) Option {
	return func(s *settings) { s.Replicas = k }
}

// WithSpeculation evaluates m candidate moves per annealing step
// concurrently, each against its own copy of the incremental-cost state, and
// commits the first acceptance in a fixed candidate order. 0 and 1 (the
// default) evaluate one move per step. Like WithReplicas, m >= 2 keeps the
// GOMAXPROCS-independence guarantee — same seed and shape, byte-identical
// Result — while walking a different (still deterministic) move sequence
// than serial. Composes with WithReplicas: every replica evaluates m
// candidates per step.
func WithSpeculation(m int) Option {
	return func(s *settings) { s.Speculation = m }
}

// WithCostCrossCheck re-evaluates every annealing move through the full
// recompute path and panics if the incremental cost drifts beyond 1e-9
// (relative). It also pins every patched per-die entropy against a
// from-scratch recompute (1e-9 relative). Debug aid: it forfeits the entire
// incremental speedup.
func WithCostCrossCheck(enabled bool) Option {
	return func(s *settings) { s.crossCheck = enabled }
}
