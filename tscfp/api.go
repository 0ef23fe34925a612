// Package tscfp is the public entry point to the TSC-aware 3D floorplanning
// flow reproduced from Knechtel & Sinanoglu, "On Mitigation of Side-Channel
// Attacks in 3D ICs: Decorrelating Thermal Patterns from Power and Activity"
// (DAC 2017).
//
// The package wraps the internal flow behind a small, stable surface:
//
//	design, _ := tscfp.Benchmark("n100")
//	flow, _ := tscfp.NewFlow(design,
//		tscfp.WithMode(tscfp.TSCAware),
//		tscfp.WithIterations(3000),
//		tscfp.WithSeed(1))
//	res, err := flow.Run(ctx)
//
// Run honors context cancellation down to the annealing moves and thermal
// solver sweeps, emits optional per-stage progress events (WithProgress),
// and returns a Result that serializes to stable JSON for downstream
// tooling. Sweep fans a parameter grid (seeds × modes × grid sizes) out over
// a worker pool — the batch primitive for experiment campaigns.
package tscfp

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netlist"
)

// Design is a block-level design accepted by the flow: modules, nets,
// terminal pins, and the fixed per-die outline of the 3D stack. Obtain one
// from Benchmark, or decode one from JSON in the schema MarshalJSON writes,
// which the JSON tags of internal/netlist's Design, Module, Net and
// Terminal declare.
type Design struct {
	d *netlist.Design
}

// Benchmark synthesizes one of the paper's Table 1 benchmarks
// (n100, n200, n300, ibm01, ibm03, ibm07) deterministically.
func Benchmark(name string) (*Design, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	d, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &Design{d: d}, nil
}

// MustBenchmark is Benchmark, panicking on unknown names (for examples).
func MustBenchmark(name string) *Design {
	d, err := Benchmark(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Benchmarks returns the available benchmark names in Table 1 order.
func Benchmarks() []string {
	var names []string
	for _, s := range bench.Table1() {
		names = append(names, s.Name)
	}
	return names
}

// ModuleInfo describes one module of a Design.
type ModuleInfo struct {
	Name      string  `json:"name"`
	Hard      bool    `json:"hard"`
	W         float64 `json:"w_um"`
	H         float64 `json:"h_um"`
	PowerW    float64 `json:"power_w"`
	Sensitive bool    `json:"sensitive,omitempty"`
}

// Name returns the design name.
func (d *Design) Name() string { return d.d.Name }

// Dies returns the stack height.
func (d *Design) Dies() int { return d.d.Dies }

// Outline returns the fixed per-die outline in um.
func (d *Design) Outline() (w, h float64) { return d.d.OutlineW, d.d.OutlineH }

// NumModules, NumNets, and NumTerminals report the netlist size.
func (d *Design) NumModules() int { return len(d.d.Modules) }

// NumNets returns the net count.
func (d *Design) NumNets() int { return len(d.d.Nets) }

// NumTerminals returns the terminal-pin count.
func (d *Design) NumTerminals() int { return len(d.d.Terminals) }

// HardModules and SoftModules report the module mix.
func (d *Design) HardModules() int { return d.d.HardCount() }

// SoftModules returns the soft-module count.
func (d *Design) SoftModules() int { return d.d.SoftCount() }

// TotalPower returns the nominal power budget in W at 1.0 V.
func (d *Design) TotalPower() float64 { return d.d.TotalPower() }

// Modules returns a snapshot of the module list, in index order. Indices
// into this slice are the module indices used by WithProtectedModules,
// SensitiveModules, and Result.Modules.
func (d *Design) Modules() []ModuleInfo {
	out := make([]ModuleInfo, len(d.d.Modules))
	for i, m := range d.d.Modules {
		out[i] = ModuleInfo{
			Name:      m.Name,
			Hard:      m.Kind == netlist.Hard,
			W:         m.W,
			H:         m.H,
			PowerW:    m.Power,
			Sensitive: m.Sensitive,
		}
	}
	return out
}

// SensitiveModules returns the indices of security-critical modules (the
// attack targets of Sec. 5), in index order.
func (d *Design) SensitiveModules() []int {
	var out []int
	for i, m := range d.d.Modules {
		if m.Sensitive {
			out = append(out, i)
		}
	}
	return out
}

// Netlist exposes the underlying design for in-repo tooling built on the
// internal packages (attacks, custom analyses). External importers cannot
// name the returned type but may pass it along unchanged.
func (d *Design) Netlist() *netlist.Design { return d.d }

// Core exposes the completed internal flow result for in-repo tooling (the
// attack simulations, the noise-injection baseline, the ASCII reports). It
// is nil on a Result decoded from JSON — only live runs carry the handle.
func (r *Result) Core() *core.Result { return r.raw }
