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

// RunStats reports a run's computational effort: annealing-loop evaluation
// counts (and how much work the incremental caches avoided), the parallel
// annealer's ladder and batch counts, and the detailed verification solve.
// Each field's wire key is listed in docs/ARCHITECTURE.md, "Result.Stats
// keys". The counts are deterministic for a fixed seed and configuration,
// but they describe effort, not the design — zero the struct when diffing
// reports across seeds, budgets or evaluator settings.
type RunStats = core.RunStats

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

// DieMetrics bundles one die's leakage measurements: the power-temperature
// correlation r (Eq. 1), the spatial entropy S (Eq. 3), the side-channel
// vulnerability factor and the mean correlation stability (Eq. 2).
type DieMetrics = core.DieMetrics

// Metrics mirrors one column pair of the paper's Table 2: per-die leakage
// metrics, with S1/S2, R1/R2, SVF1/SVF2 and MeanStability1/2 aliasing the
// bottom and top dies, and the design cost.
type Metrics = core.Metrics

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

// Validate checks the result's structural consistency: map sizes, die
// indices, and that the metric aliases (S1/R1/SVF1/MeanStability1 and their
// "2" forms) equal the bottom and top dies' per-die metrics exactly.
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
	m := &r.Metrics
	if len(m.PerDie) != r.Dies {
		return fmt.Errorf("tscfp: metrics cover %d dies, want %d", len(m.PerDie), r.Dies)
	}
	bottom, top := m.PerDie[0], m.PerDie[r.Dies-1]
	for _, a := range []struct {
		key        string
		die        int
		alias, per float64
	}{
		{"s1", 0, m.S1, bottom.S}, {"r1", 0, m.R1, bottom.R},
		{"svf1", 0, m.SVF1, bottom.SVF}, {"mean_stability1", 0, m.MeanStability1, bottom.MeanStability},
		{"s2", r.Dies - 1, m.S2, top.S}, {"r2", r.Dies - 1, m.R2, top.R},
		{"svf2", r.Dies - 1, m.SVF2, top.SVF}, {"mean_stability2", r.Dies - 1, m.MeanStability2, top.MeanStability},
	} {
		//lint:floateq an alias is a copy of its per-die value, and JSON round-trips a float64 exactly
		if a.alias != a.per {
			return fmt.Errorf("tscfp: metrics %s %v differs from die %d's %v", a.key, a.alias, a.die, a.per)
		}
	}
	return nil
}

// MarshalJSON encodes the design's full netlist in the wire schema that
// netlist's JSON tags declare, so a decoded Design is flow-equivalent to the
// original.
func (d *Design) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.d)
}

// UnmarshalJSON decodes and validates a design written by MarshalJSON. An
// empty list decodes as an absent one, so "nets": [] and no nets at all
// re-encode alike and content-address as one design.
func (d *Design) UnmarshalJSON(data []byte) error {
	var des netlist.Design
	if err := json.Unmarshal(data, &des); err != nil {
		return fmt.Errorf("tscfp: decode design: %w", err)
	}
	if err := des.Validate(); err != nil {
		return fmt.Errorf("tscfp: decoded design invalid: %w", err)
	}
	des.Modules, des.Nets, des.Terminals = nilIfEmpty(des.Modules), nilIfEmpty(des.Nets), nilIfEmpty(des.Terminals)
	for _, n := range des.Nets {
		n.Modules = nilIfEmpty(n.Modules)
	}
	d.d = &des
	return nil
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
