// Package core implements the paper's primary contribution: thermal
// side-channel-aware 3D floorplanning (Fig. 3). It orchestrates the
// substrates — floorplan representation and annealing, fast and detailed
// thermal analysis, timing, voltage assignment, TSV planning, leakage
// metrics, activity sampling — into the two experimental setups of Sec. 7:
//
//   - power-aware floorplanning (PA): packing, wirelength, critical delay,
//     peak temperature, and voltage assignment optimized together (the
//     competitive baseline);
//   - TSC-aware floorplanning (TSC): the same criteria plus minimization of
//     the power/thermal correlation (Eq. 1) and the spatial entropy of the
//     power maps (Eq. 3), a TSC-oriented voltage-assignment objective, and
//     the correlation-stability-guided dummy-TSV post-processing of
//     Sec. 6.2.
package core

import (
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/thermal"
	"repro/internal/tsv"
	"repro/internal/volt"
)

// Mode selects the experimental setup. Its values are the wire spellings;
// the empty mode is the default, TSCAware.
type Mode string

const (
	// PowerAware is the paper's baseline setup (i).
	PowerAware Mode = "power-aware"
	// TSCAware is the paper's proposed setup (ii).
	TSCAware Mode = "tsc-aware"
)

// PostCriterion selects the correlation watched by the dummy-TSV stop rule.
// Its values are the wire spellings; the empty criterion is the default,
// BottomDie.
type PostCriterion string

const (
	// BottomDie accepts insertions while |r_1| drops (default; the bottom
	// die is the protectable one).
	BottomDie PostCriterion = "bottom-die"
	// AllDies accepts insertions while the mean |r_d| over dies drops.
	AllDies PostCriterion = "all-dies"
)

// Weights are the multi-objective cost weights. The paper weights all
// criteria equally (Sec. 7); each term is normalized to its initial value
// before weighting, so 1.0 everywhere reproduces that setup.
type Weights struct {
	OutlineViolation float64 `json:"outline_violation"`
	Wirelength       float64 `json:"wirelength"`
	CriticalDelay    float64 `json:"critical_delay"`
	PeakTemp         float64 `json:"peak_temp"`
	Power            float64 `json:"power"`
	VoltageVolumes   float64 `json:"voltage_volumes"`
	Correlation      float64 `json:"correlation"`     // TSC-aware only
	SpatialEntropy   float64 `json:"spatial_entropy"` // TSC-aware only
	// DesignRule is Corblivar's thermal design rule (Sec. 7.2): the
	// fraction of power placed away from the heatsink-side die is
	// penalized, pushing high-power modules toward the top die. The paper
	// notes that relaxing this rule "prohibitively increases the peak
	// temperatures" — BenchmarkAblationDesignRule reproduces that.
	DesignRule float64 `json:"design_rule"`
}

// DefaultWeights returns equal weighting, with the leakage terms enabled
// only in TSC mode. Outline violation carries a high weight because it is a
// legality constraint, not a quality trade-off.
func DefaultWeights(mode Mode) Weights {
	w := Weights{
		OutlineViolation: 8,
		Wirelength:       1,
		CriticalDelay:    1,
		PeakTemp:         1,
		Power:            1,
		VoltageVolumes:   0.25,
		DesignRule:       0.5,
	}
	if mode == TSCAware {
		// The leakage terms carry extra weight: the classical criteria
		// already pull toward compact, hot-spot-concentrated layouts, and
		// an equally-weighted correlation term cannot overcome that pull at
		// our (much smaller than the paper's) annealing budgets.
		w.Correlation = 3
		w.SpatialEntropy = 1.5
	}
	return w
}

// Config tunes one floorplanning run. It is the one declaration of the
// knob set and of its JSON schema: tscfp.RunOptions is this type, so the
// tags below are the tscfp job wire. The zero value of every field selects
// the knob's default. Fields marshal in declaration order, all omitempty;
// CostCrossCheck and Progress have no wire form.
type Config struct {
	// Mode selects the experimental setup. Default TSCAware.
	Mode Mode `json:"mode,omitempty"`
	// Seed drives all stochastic stages.
	Seed int64 `json:"seed,omitempty"`
	// Iterations is the annealing budget. Default 3000.
	Iterations int `json:"iterations,omitempty"`
	// GridN is the lateral resolution of the thermal and leakage grids.
	// Default 32.
	GridN int `json:"grid_n,omitempty"`
	// ActivitySamples is m of Eq. 2; the paper uses 100. Default 100.
	ActivitySamples int `json:"activity_samples,omitempty"`
	// PostProcess enables the dummy-TSV insertion stage (TSC mode).
	// Nil defaults to true in TSC mode, false in PA mode.
	PostProcess *bool `json:"post_process,omitempty"`
	// PostCriterion selects which correlation the dummy-TSV stop rule
	// watches. The paper tracks "the resulting average correlation" and
	// separately suggests focusing on critical regions; the bottom die is
	// the one the flow can actually protect (Sec. 7.2 explains why the top
	// die is structurally compromised by the heatsink design rule), so
	// BottomDie is the default.
	PostCriterion PostCriterion `json:"post_criterion,omitempty"`
	// ProtectedModules, when non-empty, switches the post-processing stage
	// to the paper's Sec. 7.1 adaptation: dummy TSVs target only the bins
	// covered by these (security-critical) modules, the stop rule watches
	// the correlation over those bins, and "more stable correlations
	// elsewhere" are accepted. Module indices into Design.Modules, each in
	// [0, len(Design.Modules)) — tscfp.NewFlow rejects any other.
	ProtectedModules []int `json:"protected_modules,omitempty"`
	// MaxDummyGroups bounds post-processing insertions. Default 64.
	MaxDummyGroups int `json:"max_dummy_groups,omitempty"`
	// VoltEvery re-runs voltage assignment every k-th accepted evaluation
	// (the paper integrates it continuously; the stride keeps runtime at
	// the reported ~30% overhead). Default 10.
	VoltEvery int `json:"volt_every,omitempty"`
	// Weights override; nil selects DefaultWeights(Mode).
	Weights *Weights `json:"weights,omitempty"`
	// Parallelism bounds the worker goroutines fanned out by the detailed
	// thermal solver's red-black SOR sweeps and the fast estimator's
	// separable convolutions. 0 is auto: GOMAXPROCS, or 1 under Replicas or
	// Speculation (and, in tscfp, in each cell of a multi-worker sweep); a
	// positive value wins, 1 forcing the serial path. Results are
	// byte-identical for every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// Replicas runs K tempered annealing chains (parallel tempering): each
	// replica anneals on its own RNG stream at its rung of a geometric
	// temperature ladder, neighbours periodically swap temperatures by the
	// Metropolis criterion, and the best replica's floorplan feeds the rest
	// of the flow. 0 and 1 select one replica; with Speculation at 0 or 1
	// too, that is the serial chain, which walks the flow RNG itself and is
	// bit-identical to pre-replica releases at a fixed seed. K >= 2 is its
	// own deterministic contract: a fixed (Seed, Replicas, Speculation)
	// triple yields a byte-identical Result for any GOMAXPROCS, but the
	// result differs from the serial walk.
	Replicas int `json:"replicas,omitempty"`
	// Speculation evaluates M candidate moves per annealing step
	// concurrently, each on its own evaluator copy, and commits the first
	// acceptance in candidate order. 0 and 1 select one copy, one move per
	// step. Like Replicas, M >= 2 keeps the GOMAXPROCS-independence
	// guarantee but is a different (still deterministic) walk than serial.
	Speculation int `json:"speculation,omitempty"`
	// CostCrossCheck re-evaluates every annealing move through the full
	// recompute path and panics if the incremental cost drifts beyond 1e-9
	// (relative). It also pins every patched per-die entropy against a
	// from-scratch leakage.SpatialEntropy (1e-9 relative). Debug aid: it
	// forfeits the entire speedup.
	CostCrossCheck bool `json:"-"`
	// Progress, when non-nil, receives per-stage events as the flow
	// advances. The callback runs synchronously on the flow goroutine and
	// must be cheap; it must not retain the event past the call.
	Progress func(ProgressEvent) `json:"-"`
}

// Stage identifies one phase of the flow (Fig. 3) in progress events.
type Stage string

const (
	// StageAnneal is the simulated-annealing floorplanning search.
	StageAnneal Stage = "anneal"
	// StageFinalize covers TSV planning, voltage assignment, and the
	// detailed thermal verification.
	StageFinalize Stage = "finalize"
	// StageSampling is the activity-sampling loop of the post-processing
	// stage (Eq. 2 inputs).
	StageSampling Stage = "sampling"
	// StagePostProcess is the iterative dummy-TSV insertion (Sec. 6.2).
	StagePostProcess Stage = "post-process"
	// StageDone fires once, after metrics are final.
	StageDone Stage = "done"
)

// ProgressEvent is one progress update. Done/Total count stage-local units
// (annealing moves, activity samples, dummy groups); Total is 0 when the
// stage has no meaningful denominator. Cost carries the best annealing cost
// seen so far during StageAnneal and the watched correlation during
// StagePostProcess; it is 0 elsewhere. It marshals to stable JSON, so
// serving layers (tscfpd's SSE stream) forward it verbatim.
type ProgressEvent struct {
	Stage Stage   `json:"stage"`
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Cost  float64 `json:"cost"`
}

func (c *Config) defaults() {
	if c.Mode == "" {
		c.Mode = TSCAware
	}
	if c.PostCriterion == "" {
		c.PostCriterion = BottomDie
	}
	if c.GridN == 0 {
		c.GridN = 32
	}
	if c.Iterations == 0 {
		c.Iterations = 3000
	}
	if c.VoltEvery == 0 {
		c.VoltEvery = 10
	}
	if c.ActivitySamples == 0 {
		c.ActivitySamples = 100
	}
	if c.PostProcess == nil {
		pp := c.Mode == TSCAware
		c.PostProcess = &pp
	}
	if c.MaxDummyGroups == 0 {
		c.MaxDummyGroups = 64
	}
	if c.Weights == nil {
		w := DefaultWeights(c.Mode)
		c.Weights = &w
	}
	// Replica/speculation workers are the annealing loop's own use of the
	// cores; defaulting the thermal fan-out to serial inside each worker
	// avoids oversubscribing GOMAXPROCS with nested pools. A positive
	// Parallelism still wins.
	if (c.Replicas > 1 || c.Speculation > 1) && c.Parallelism == 0 {
		c.Parallelism = 1
	}
}

// RunStats reports a run's computational effort: the annealing loop's
// evaluation counts (and how much work the incremental caches avoided), the
// parallel annealer's ladder and batch counts, and the detailed
// verification solve. It is Result.Stats on the tscfp wire, one key per
// field in declaration order (docs/ARCHITECTURE.md, "Result.Stats keys").
// The counts are deterministic for a fixed seed and configuration (they
// follow the move sequence and acceptance decisions), but unlike the layout
// and metrics they describe evaluator and solver effort — zero the struct
// when diffing reports across seeds, budgets or evaluator settings.
type RunStats struct {
	// Evals counts annealing-loop cost evaluations; FullEvals of those
	// rebuilt every term from scratch, IncrementalEvals were served from the
	// caches.
	Evals            int `json:"evals"`
	FullEvals        int `json:"full_evals"`
	IncrementalEvals int `json:"incremental_evals"`
	// VoltRefreshes counts voltage-assignment re-runs (the VoltEvery
	// stride).
	VoltRefreshes int `json:"volt_refreshes"`
	// EntropyPatched/EntropyRebuilt count per-die spatial-entropy refreshes
	// served by patching the entropy cache vs rebuilt from scratch (first
	// use, voltage-scale changes, wholesale map changes);
	// EntropyCrossChecks counts patched-vs-full comparisons (0 unless
	// Config.CostCrossCheck was set).
	EntropyPatched     int `json:"entropy_patched"`
	EntropyRebuilt     int `json:"entropy_rebuilt"`
	EntropyCrossChecks int `json:"entropy_cross_checks"`
	// DiesRepacked/DiesReused count per-die skyline packings run vs skipped;
	// NetsRecomputed/NetsReused the per-net wirelength+Elmore refreshes run
	// vs served from cache; ResponsesComputed/ResponsesReused the
	// per-source-die thermal blur responses.
	DiesRepacked      int `json:"dies_repacked"`
	DiesReused        int `json:"dies_reused"`
	NetsRecomputed    int `json:"nets_recomputed"`
	NetsReused        int `json:"nets_reused"`
	ResponsesComputed int `json:"responses_computed"`
	ResponsesReused   int `json:"responses_reused"`
	// SolverSweeps/SolverResidual/SolverConverged describe the detailed
	// thermal verification solve of the finalize stage (post-processing
	// solves are not included).
	SolverSweeps    int     `json:"solver_sweeps"`
	SolverResidual  float64 `json:"solver_residual"`
	SolverConverged bool    `json:"solver_converged"`
	// ReplicaCount records the tempered-chain count whenever the annealer
	// ran other than as the serial chain; ReplicaSwapAttempts and
	// ReplicaSwapAccepts count the Metropolis temperature-swap decisions
	// across the ladder, and ReplicaBest is the index of the chain whose
	// floorplan won. All zero, and omitted, for the serial chain, which
	// keeps serial encodings byte-identical to earlier releases.
	ReplicaCount        int `json:"repl_replicas,omitempty"`
	ReplicaSwapAttempts int `json:"repl_swap_attempts,omitempty"`
	ReplicaSwapAccepts  int `json:"repl_swap_accepts,omitempty"`
	ReplicaBest         int `json:"repl_best,omitempty"`
	// SpecWorkers records the speculative-evaluation width M whenever the
	// annealer ran other than as the serial chain (1 for a replica-only
	// run); SpecBatches counts candidate batches evaluated, SpecCommits the
	// batches that committed an acceptance, and SpecDiscarded the candidate
	// evaluations thrown away (losers of a committed batch plus all
	// candidates of batches with no acceptance). Omitted when zero.
	SpecWorkers   int `json:"spec_workers,omitempty"`
	SpecBatches   int `json:"spec_batches,omitempty"`
	SpecCommits   int `json:"spec_commits,omitempty"`
	SpecDiscarded int `json:"spec_discarded,omitempty"`
}

// EvalStats is a run's full effort record: the wire counters of RunStats
// plus the core-only diagnostics below, which no Result encoding carries.
// The end-to-end benchmark (benchmark/cmd/tscfpbench) reads them through
// tscfp's Result.Core().
type EvalStats struct {
	RunStats

	// VoltCandidatesRegrown counts the per-module candidate trees the
	// incremental path's refreshes grew (every module's, every refresh);
	// VoltCandidatesReused is always 0, since no tree is kept between
	// refreshes. Both stay because the benchmark reads them for
	// anneal.volt_regrown_frac.
	VoltCandidatesReused  int
	VoltCandidatesRegrown int
	// STARebuilds counts the annealing loop's full STA passes: one
	// delay-scaled pass per evaluation plus a reference pass per voltage
	// refresh. STAPatches is always 0 now that the loop has no incremental
	// timing patch; both stay because the benchmark reads them for
	// anneal.sta_rebuild_frac.
	STAPatches  int
	STARebuilds int
	// CrossChecks counts full-recompute comparisons; MaxCrossCheckError is
	// the largest |incremental - full| cost difference they observed (0
	// unless Config.CostCrossCheck was set).
	CrossChecks        int
	MaxCrossCheckError float64
	// AnnealBestCost is the best (normalized, weighted) annealing cost the
	// search reached — the quality the replica ladder buys.
	AnnealBestCost float64
	// PackMoves counts moves applied through the diff-producing repack
	// (PackDieFromDiff); PackDieDiffs the per-die diffs they ran (a move
	// touches one or two dies); PackReplayedPositions the sequence
	// positions they replayed (each diff replays from its resume point to
	// the die's end); and PackChangedModules the modules whose placement
	// actually changed — the exact churn the per-net and per-die caches
	// consume.
	PackMoves             int
	PackDieDiffs          int
	PackReplayedPositions int
	PackChangedModules    int
	// PackChangedHist is a per-move histogram of exact changed-set sizes:
	// bucket i counts moves that changed i modules, with the last bucket
	// absorbing everything >= len-1. Percentiles via PackChangedPercentile.
	PackChangedHist []int
	// AdjBulkFallbacks counts the incremental path's voltage refreshes,
	// each of which sweeps the layout's adjacency; AdjIncrementalUpdates is
	// always 0, since the voltage engine has no other way to get adjacency.
	// Both stay because the benchmark reads them for anneal.adj_bulk_frac.
	AdjBulkFallbacks      int
	AdjIncrementalUpdates int
}

// packHistBuckets bounds the changed-set-size histogram; ibm01-class moves
// stay far below it, and anything larger lands in the overflow bucket.
const packHistBuckets = 512

// recordPackChanged tallies one move's exact changed-set size.
func (s *EvalStats) recordPackChanged(n int) {
	if s.PackChangedHist == nil {
		s.PackChangedHist = make([]int, packHistBuckets)
	}
	if n >= len(s.PackChangedHist) {
		n = len(s.PackChangedHist) - 1
	}
	s.PackChangedHist[n]++
	s.PackChangedModules += n
}

// PackChangedPercentile returns the p-quantile (p in [0,1]) of the per-move
// changed-set sizes from the histogram: the smallest size s such that at
// least p of the moves changed <= s modules. Sizes in the overflow bucket
// report as packHistBuckets-1. Returns 0 when no moves were recorded.
func (s *EvalStats) PackChangedPercentile(p float64) int {
	total := 0
	for _, c := range s.PackChangedHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := p * float64(total)
	cum := 0
	for sz, c := range s.PackChangedHist {
		cum += c
		if float64(cum) >= want {
			return sz
		}
	}
	return len(s.PackChangedHist) - 1
}

// DieMetrics bundles the per-die leakage measurements.
type DieMetrics struct {
	// R is the power-temperature correlation (Eq. 1, detailed analysis).
	R float64 `json:"r"`
	// S is the spatial entropy of the power map (Eq. 3).
	S float64 `json:"s"`
	// SVF is the side-channel vulnerability factor over the activity
	// samples (0 when post-processing is disabled).
	SVF float64 `json:"svf"`
	// MeanStability is the mean absolute per-bin stability (Eq. 2).
	MeanStability float64 `json:"mean_stability"`
}

// Metrics mirrors one column pair of the paper's Table 2.
type Metrics struct {
	// PerDie holds the leakage metrics for every die, bottom (0) to top.
	PerDie []DieMetrics `json:"per_die"`

	// Leakage metrics for the bottom and top die (Eq. 1 and Eq. 3),
	// verified with the detailed thermal analysis — aliases of
	// PerDie[0] and PerDie[len-1] kept for the two-die Table 2 shape.
	S1 float64 `json:"s1"` // spatial entropies, bottom/top die
	S2 float64 `json:"s2"`
	R1 float64 `json:"r1"` // correlation coefficients, bottom/top die
	R2 float64 `json:"r2"`

	// Design cost.
	PowerW         float64 `json:"power_w"`
	CriticalNS     float64 `json:"critical_ns"`
	WirelengthM    float64 `json:"wirelength_m"`
	PeakTempK      float64 `json:"peak_temp_k"`
	SignalTSVs     int     `json:"signal_tsvs"`
	DummyTSVs      int     `json:"dummy_tsvs"`
	VoltageVolumes int     `json:"voltage_volumes"`
	RuntimeSec     float64 `json:"runtime_sec"`

	// PostCorrelationBefore/After record the dummy-TSV stage's effect on
	// the watched correlation (Fig. 4: 0.461 -> 0.324 on n100; with
	// ProtectedModules set, the masked correlation over the protected bins).
	PostCorrelationBefore float64 `json:"post_correlation_before"`
	PostCorrelationAfter  float64 `json:"post_correlation_after"`

	// SVF1, SVF2 are the side-channel vulnerability factors per die
	// (Demme et al., the metric the paper grounds Eq. 1 in), measured over
	// the post-processing activity samples. Zero when post-processing is
	// disabled.
	SVF1 float64 `json:"svf1"`
	SVF2 float64 `json:"svf2"`
	// MeanStability1, MeanStability2 are the mean absolute per-bin
	// correlation stabilities (Eq. 2) per die over the same samples.
	MeanStability1 float64 `json:"mean_stability1"`
	MeanStability2 float64 `json:"mean_stability2"`
}

// Result is a completed floorplanning run.
type Result struct {
	Design     *netlist.Design
	Layout     *floorplan.Layout
	TSVs       *tsv.Plan
	Assignment *volt.Assignment
	Metrics    Metrics

	// PowerMaps and TempMaps are the final nominal per-die maps (detailed
	// analysis, voltage-scaled powers, all TSVs applied).
	PowerMaps []*geom.Grid
	TempMaps  []*geom.Grid

	// Stack is the solved detailed thermal model (reusable by attacks).
	Stack *thermal.Stack

	// EvalStats reports the run's effort: the annealing loop's evaluations,
	// including how much work the incremental caches avoided, and the
	// detailed verification solve of the finalize stage.
	EvalStats EvalStats

	started time.Time
}
