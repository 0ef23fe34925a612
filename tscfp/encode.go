package tscfp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/netlist"
)

// Result is the completed, serializable outcome of one flow run. All
// exported fields round-trip through JSON byte-identically (see WithSeed's
// determinism contract); the live internal handles behind Core() and
// FloorplanASCII do not survive a round trip.
type Result struct {
	Benchmark string `json:"benchmark"`
	Mode      Mode   `json:"mode"`
	Seed      int64  `json:"seed"`

	Dies     int     `json:"dies"`
	OutlineW float64 `json:"outline_w_um"`
	OutlineH float64 `json:"outline_h_um"`
	Legal    bool    `json:"legal"`

	Modules []PlacedModule  `json:"modules"`
	TSVs    []TSV           `json:"tsvs"`
	Volumes []VoltageVolume `json:"voltage_volumes"`

	Metrics Metrics `json:"metrics"`

	// Stats reports the run's computational effort: annealing-loop
	// evaluation counts (and how much work the incremental caches avoided)
	// plus the detailed verification solve.
	Stats RunStats `json:"stats"`

	// PowerMaps and TempMaps are row-major per-die grids: power in W per
	// cell, temperature in K.
	GridN     int         `json:"grid_n"`
	PowerMaps [][]float64 `json:"power_maps"`
	TempMaps  [][]float64 `json:"temp_maps"`

	raw *core.Result
}

// RunStats reports a run's computational effort. The counts are
// deterministic for a fixed seed and configuration (they follow the move
// sequence and acceptance decisions), but unlike the layout and metrics
// they describe evaluator/solver effort — zero the struct when diffing
// reports across seeds, budgets, or evaluator settings.
type RunStats struct {
	// Evals counts annealing-loop cost evaluations; IncrementalEvals of
	// those were served from the incremental caches, FullEvals rebuilt every
	// term from scratch.
	Evals            int `json:"evals"`
	FullEvals        int `json:"full_evals"`
	IncrementalEvals int `json:"incremental_evals"`
	// VoltRefreshes counts voltage-assignment re-runs (the VoltEvery
	// stride).
	VoltRefreshes int `json:"volt_refreshes"`
	// EntropyPatched/EntropyRebuilt count per-die spatial-entropy refreshes
	// served by patching the entropy cache vs rebuilt from scratch;
	// EntropyCrossChecks the patched-vs-full comparisons (0 unless
	// WithCostCrossCheck).
	EntropyPatched     int `json:"entropy_patched"`
	EntropyRebuilt     int `json:"entropy_rebuilt"`
	EntropyCrossChecks int `json:"entropy_cross_checks"`
	// DiesRepacked/DiesReused count per-die skyline packings run vs skipped;
	// NetsRecomputed/NetsReused the per-net wirelength+delay refreshes;
	// ResponsesComputed/ResponsesReused the per-source thermal blurs.
	DiesRepacked      int `json:"dies_repacked"`
	DiesReused        int `json:"dies_reused"`
	NetsRecomputed    int `json:"nets_recomputed"`
	NetsReused        int `json:"nets_reused"`
	ResponsesComputed int `json:"responses_computed"`
	ResponsesReused   int `json:"responses_reused"`
	// SolverSweeps/SolverResidual/SolverConverged describe the detailed
	// thermal verification solve of the finalize stage.
	SolverSweeps    int     `json:"solver_sweeps"`
	SolverResidual  float64 `json:"solver_residual"`
	SolverConverged bool    `json:"solver_converged"`
	// ReplicaCount and the repl_* counters describe a WithReplicas run:
	// the chain count, the Metropolis temperature-swap attempts/accepts
	// across the ladder, and the index of the chain whose floorplan won.
	// All zero (and omitted) on the serial path, which keeps serial result
	// encodings byte-identical to earlier releases.
	ReplicaCount        int `json:"repl_replicas,omitempty"`
	ReplicaSwapAttempts int `json:"repl_swap_attempts,omitempty"`
	ReplicaSwapAccepts  int `json:"repl_swap_accepts,omitempty"`
	ReplicaBest         int `json:"repl_best,omitempty"`
	// SpecWorkers and the spec_* counters describe WithSpeculation:
	// the candidate width, batches evaluated, batches that committed an
	// acceptance, and candidate evaluations discarded. Omitted when zero.
	SpecWorkers   int `json:"spec_workers,omitempty"`
	SpecBatches   int `json:"spec_batches,omitempty"`
	SpecCommits   int `json:"spec_commits,omitempty"`
	SpecDiscarded int `json:"spec_discarded,omitempty"`
	// The pack_* churn counters describe the exact-diff repack contract
	// (WithChurnStats; omitted otherwise so default encodings stay
	// byte-identical). PackMoves counts moves evaluated through the
	// diff-producing packer, PackDieDiffs the per-die diffs they ran, and
	// PackReplayedPositions the sequence positions re-placed (each diff
	// replays from its resume point to the die's end). PackChangedModules
	// totals the modules whose placement a move really changed — the exact
	// dirty set the per-net and per-die caches consume — with
	// PackChangedP50/P95 the per-move distribution's percentiles.
	PackMoves             int `json:"pack_moves,omitempty"`
	PackDieDiffs          int `json:"pack_die_diffs,omitempty"`
	PackReplayedPositions int `json:"pack_replayed_positions,omitempty"`
	PackChangedModules    int `json:"pack_changed_modules,omitempty"`
	PackChangedP50        int `json:"pack_changed_p50,omitempty"`
	PackChangedP95        int `json:"pack_changed_p95,omitempty"`
}

// PlacedModule is one module of the final layout.
type PlacedModule struct {
	Name      string  `json:"name"`
	Die       int     `json:"die"`
	X         float64 `json:"x_um"`
	Y         float64 `json:"y_um"`
	W         float64 `json:"w_um"`
	H         float64 `json:"h_um"`
	PowerW    float64 `json:"power_w"`
	VoltageV  float64 `json:"voltage_v"`
	Sensitive bool    `json:"sensitive,omitempty"`
}

// TSV is one signal or dummy TSV (or island of Count vias).
type TSV struct {
	Kind  string  `json:"kind"`
	X     float64 `json:"x_um"`
	Y     float64 `json:"y_um"`
	Net   int     `json:"net"`
	Count int     `json:"count"`
	Gap   int     `json:"gap"`
}

// VoltageVolume is one voltage island of the assignment.
type VoltageVolume struct {
	Modules  []int   `json:"modules"`
	VoltageV float64 `json:"voltage_v"`
}

// DieMetrics bundles the per-die leakage measurements.
type DieMetrics struct {
	// R is the power-temperature correlation (Eq. 1, detailed analysis).
	R float64 `json:"r"`
	// S is the spatial entropy of the power map (Eq. 3).
	S float64 `json:"s"`
	// SVF is the side-channel vulnerability factor (0 when post-processing
	// is disabled).
	SVF float64 `json:"svf"`
	// MeanStability is the mean absolute per-bin stability (Eq. 2).
	MeanStability float64 `json:"mean_stability"`
}

// Metrics mirrors one column pair of the paper's Table 2.
type Metrics struct {
	PerDie []DieMetrics `json:"per_die"`

	S1 float64 `json:"s1"`
	S2 float64 `json:"s2"`
	R1 float64 `json:"r1"`
	R2 float64 `json:"r2"`

	PowerW         float64 `json:"power_w"`
	CriticalNS     float64 `json:"critical_ns"`
	WirelengthM    float64 `json:"wirelength_m"`
	PeakTempK      float64 `json:"peak_temp_k"`
	SignalTSVs     int     `json:"signal_tsvs"`
	DummyTSVs      int     `json:"dummy_tsvs"`
	VoltageVolumes int     `json:"voltage_volumes"`
	RuntimeSec     float64 `json:"runtime_sec"`

	PostCorrelationBefore float64 `json:"post_correlation_before"`
	PostCorrelationAfter  float64 `json:"post_correlation_after"`

	SVF1           float64 `json:"svf1"`
	SVF2           float64 `json:"svf2"`
	MeanStability1 float64 `json:"mean_stability1"`
	MeanStability2 float64 `json:"mean_stability2"`
}

// JSON returns the indented JSON encoding of the result. Encoding is
// deterministic: the same run (same design, seed, options) yields
// byte-identical output apart from Metrics.RuntimeSec — zero that field
// first when diffing or hashing reports.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteJSON writes the result's JSON encoding to w.
func (r *Result) WriteJSON(w io.Writer) error {
	data, err := r.JSON()
	if err != nil {
		return fmt.Errorf("tscfp: encode result: %w", err)
	}
	_, err = w.Write(data)
	return err
}

// WriteJSONFile writes the result's JSON encoding to path.
func (r *Result) WriteJSONFile(path string) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadResult decodes a Result previously written with WriteJSON and
// validates its structural consistency.
func ReadResult(r io.Reader) (*Result, error) {
	var res Result
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		return nil, fmt.Errorf("tscfp: decode result: %w", err)
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return &res, nil
}

// ReadResultFile is ReadResult over a file.
func ReadResultFile(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadResult(f)
}

// Validate checks the result's structural consistency (map sizes, die
// indices, metric aliases).
func (r *Result) Validate() error {
	if r.Dies < 1 {
		return fmt.Errorf("tscfp: result has bad die count %d", r.Dies)
	}
	if r.GridN < 1 {
		return fmt.Errorf("tscfp: result has bad grid resolution %d", r.GridN)
	}
	if len(r.PowerMaps) != r.Dies || len(r.TempMaps) != r.Dies {
		return fmt.Errorf("tscfp: result has %d/%d maps for %d dies",
			len(r.PowerMaps), len(r.TempMaps), r.Dies)
	}
	want := r.GridN * r.GridN
	for d := 0; d < r.Dies; d++ {
		if len(r.PowerMaps[d]) != want || len(r.TempMaps[d]) != want {
			return fmt.Errorf("tscfp: die %d maps sized %d/%d, want %d",
				d, len(r.PowerMaps[d]), len(r.TempMaps[d]), want)
		}
	}
	for _, m := range r.Modules {
		if m.Die < 0 || m.Die >= r.Dies {
			return fmt.Errorf("tscfp: module %s placed on die %d of %d", m.Name, m.Die, r.Dies)
		}
	}
	if len(r.Metrics.PerDie) != r.Dies {
		return fmt.Errorf("tscfp: metrics cover %d dies, want %d", len(r.Metrics.PerDie), r.Dies)
	}
	return nil
}

// designJSON is the on-disk schema of a Design.
type designJSON struct {
	Name      string         `json:"name"`
	Dies      int            `json:"dies"`
	OutlineW  float64        `json:"outline_w_um"`
	OutlineH  float64        `json:"outline_h_um"`
	Modules   []moduleJSON   `json:"modules"`
	Nets      []netJSON      `json:"nets"`
	Terminals []terminalJSON `json:"terminals"`
}

type moduleJSON struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"`
	W              float64 `json:"w_um"`
	H              float64 `json:"h_um"`
	MinAspect      float64 `json:"min_aspect,omitempty"`
	MaxAspect      float64 `json:"max_aspect,omitempty"`
	PowerW         float64 `json:"power_w"`
	IntrinsicDelay float64 `json:"intrinsic_delay_ns"`
	Sensitive      bool    `json:"sensitive,omitempty"`
}

type netJSON struct {
	Name      string `json:"name"`
	Modules   []int  `json:"modules"`
	Terminals []int  `json:"terminals,omitempty"`
}

type terminalJSON struct {
	Name string  `json:"name"`
	X    float64 `json:"x_um"`
	Y    float64 `json:"y_um"`
}

// MarshalJSON encodes the design's full netlist, so a decoded Design is
// flow-equivalent to the original.
func (d *Design) MarshalJSON() ([]byte, error) {
	out := designJSON{
		Name:     d.d.Name,
		Dies:     d.d.Dies,
		OutlineW: d.d.OutlineW,
		OutlineH: d.d.OutlineH,
	}
	for _, m := range d.d.Modules {
		out.Modules = append(out.Modules, moduleJSON{
			Name:           m.Name,
			Kind:           m.Kind.String(),
			W:              m.W,
			H:              m.H,
			MinAspect:      m.MinAspect,
			MaxAspect:      m.MaxAspect,
			PowerW:         m.Power,
			IntrinsicDelay: m.IntrinsicDelay,
			Sensitive:      m.Sensitive,
		})
	}
	for _, n := range d.d.Nets {
		out.Nets = append(out.Nets, netJSON{
			Name:      n.Name,
			Modules:   append([]int(nil), n.Modules...),
			Terminals: append([]int(nil), n.Terminals...),
		})
	}
	for _, t := range d.d.Terminals {
		out.Terminals = append(out.Terminals, terminalJSON{Name: t.Name, X: t.X, Y: t.Y})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and validates a design written by MarshalJSON.
func (d *Design) UnmarshalJSON(data []byte) error {
	var in designJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("tscfp: decode design: %w", err)
	}
	des := &netlist.Design{
		Name:     in.Name,
		Dies:     in.Dies,
		OutlineW: in.OutlineW,
		OutlineH: in.OutlineH,
	}
	for _, m := range in.Modules {
		kind := netlist.Soft
		switch m.Kind {
		case "hard":
			kind = netlist.Hard
		case "soft", "":
		default:
			return fmt.Errorf("tscfp: module %s has unknown kind %q", m.Name, m.Kind)
		}
		des.Modules = append(des.Modules, &netlist.Module{
			Name:           m.Name,
			Kind:           kind,
			W:              m.W,
			H:              m.H,
			MinAspect:      m.MinAspect,
			MaxAspect:      m.MaxAspect,
			Power:          m.PowerW,
			IntrinsicDelay: m.IntrinsicDelay,
			Sensitive:      m.Sensitive,
		})
	}
	for _, n := range in.Nets {
		des.Nets = append(des.Nets, &netlist.Net{
			Name:      n.Name,
			Modules:   append([]int(nil), n.Modules...),
			Terminals: append([]int(nil), n.Terminals...),
		})
	}
	for _, t := range in.Terminals {
		des.Terminals = append(des.Terminals, &netlist.Terminal{Name: t.Name, X: t.X, Y: t.Y})
	}
	if err := des.Validate(); err != nil {
		return fmt.Errorf("tscfp: decoded design invalid: %w", err)
	}
	d.d = des
	return nil
}
