// Package netlist models the block-level design input to the floorplanner:
// modules (hard or soft IP blocks with area and nominal power), nets
// connecting module pins and chip-level terminal pins, and the design-level
// queries (connectivity, degree distributions, power budget) the optimizer
// and the benchmark generators need.
//
// The model mirrors the GSRC/IBM-HB+ block-level benchmark conventions used
// by the paper's Table 1: a design has a fixed die outline, a set of
// modules with scale factors applied, nets, and terminal (I/O) pins on the
// outline boundary.
package netlist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// ModuleKind distinguishes hard macros (fixed footprint, may only rotate)
// from soft modules (fixed area, adjustable aspect ratio).
type ModuleKind int

const (
	// Hard modules have a fixed width x height footprint.
	Hard ModuleKind = iota
	// Soft modules have fixed area but a flexible aspect ratio within
	// [MinAspect, MaxAspect].
	Soft
)

func (k ModuleKind) String() string {
	switch k {
	case Hard:
		return "hard"
	case Soft:
		return "soft"
	default:
		return fmt.Sprintf("ModuleKind(%d)", int(k))
	}
}

// MarshalText writes the kind as "hard" or "soft", its wire spelling.
func (k ModuleKind) MarshalText() ([]byte, error) {
	if k != Hard && k != Soft {
		return nil, fmt.Errorf("netlist: cannot encode %v", k)
	}
	return []byte(k.String()), nil
}

// UnmarshalText reads "hard" or "soft"; the empty string is soft.
func (k *ModuleKind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "hard":
		*k = Hard
	case "soft", "":
		*k = Soft
	default:
		return fmt.Errorf("unknown module kind %q", text)
	}
	return nil
}

// Module is a block-level IP module. Designers treat these as black boxes:
// only area, aspect limits, pin count, and nominal power are known, matching
// the threat model in Sec. 2.2 of the paper.
type Module struct {
	Name string     `json:"name"`
	Kind ModuleKind `json:"kind"`

	// W, H is the footprint in um. For a soft module it is the nominal
	// footprint: the floorplanner picks the aspect ratio, keeping Area().
	W float64 `json:"w_um"`
	H float64 `json:"h_um"`

	// MinAspect and MaxAspect bound W/H for soft modules.
	MinAspect float64 `json:"min_aspect,omitempty"`
	MaxAspect float64 `json:"max_aspect,omitempty"`

	// Power is the nominal power in Watts at the 1.0 V reference voltage.
	Power float64 `json:"power_w"`

	// IntrinsicDelay is the module's internal critical delay in ns at the
	// 1.0 V reference, scaled by the voltage assignment (see internal/volt).
	IntrinsicDelay float64 `json:"intrinsic_delay_ns"`

	// Sensitive marks security-critical modules (e.g. crypto cores) that
	// the TSC attacks of Sec. 5 target.
	Sensitive bool `json:"sensitive,omitempty"`
}

// UnmarshalJSON decodes a module; an absent kind reads as soft, as an
// empty one does, and an unknown key is an error.
func (m *Module) UnmarshalJSON(data []byte) error {
	type fields Module // Module's fields without this method
	f := fields{Kind: Soft}
	if err := DecodeStrict(data, &f); err != nil {
		return fmt.Errorf("netlist: module %q: %w", f.Name, err)
	}
	*m = Module(f)
	return nil
}

// DecodeStrict is json.Unmarshal with unknown object keys rejected. A
// custom UnmarshalJSON receives its value's bytes alone, so a caller's
// Decoder.DisallowUnknownFields does not reach inside it: each of the
// wire schema's decoders calls this instead.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("json: data after the top-level value")
	}
	return nil
}

// Area returns the module area in um^2.
func (m *Module) Area() float64 { return m.W * m.H }

// PowerDensity returns the nominal power density in W/um^2.
func (m *Module) PowerDensity() float64 {
	a := m.Area()
	if a <= 0 {
		return 0
	}
	return m.Power / a
}

// Terminal is a chip-level I/O pin fixed on the die outline.
type Terminal struct {
	Name string `json:"name"`
	// X, Y is the position on the outline, in um.
	X float64 `json:"x_um"`
	Y float64 `json:"y_um"`
}

// Net connects a set of modules (by index into Design.Modules) and a set of
// terminals (by index into Design.Terminals).
type Net struct {
	Name      string `json:"name"`
	Modules   []int  `json:"modules"`
	Terminals []int  `json:"terminals,omitempty"`
}

// Degree returns the number of pins on the net.
func (n *Net) Degree() int { return len(n.Modules) + len(n.Terminals) }

// Design is a complete block-level design: modules, nets, terminals, and the
// fixed per-die outline for the two-die 3D stack.
//
// The JSON tags on Design, Module, Net and Terminal are the tscfp wire
// schema of a design, and tscfpd content-addresses a submission by the
// bytes they encode to: renaming or reordering a tagged field changes every
// stored artifact's address.
type Design struct {
	Name string `json:"name"`

	// Dies is the stack height; the paper studies two dies, face-to-back.
	Dies int `json:"dies"`

	// OutlineW, OutlineH is the fixed outline of EACH die in um. The paper
	// uses fixed-outline floorplanning (Sec. 7: "resulting die outlines are
	// fixed").
	OutlineW float64 `json:"outline_w_um"`
	OutlineH float64 `json:"outline_h_um"`

	Modules   []*Module   `json:"modules"`
	Nets      []*Net      `json:"nets"`
	Terminals []*Terminal `json:"terminals"`
}

// TotalPower returns the design's nominal power budget in W at 1.0 V.
func (d *Design) TotalPower() float64 {
	s := 0.0
	for _, m := range d.Modules {
		s += m.Power
	}
	return s
}

// TotalModuleArea returns the sum of module areas in um^2.
func (d *Design) TotalModuleArea() float64 {
	s := 0.0
	for _, m := range d.Modules {
		s += m.Area()
	}
	return s
}

// OutlineArea returns the total placement area across all dies in um^2.
func (d *Design) OutlineArea() float64 {
	return d.OutlineW * d.OutlineH * float64(d.Dies)
}

// Utilization returns module area / available area, the packing difficulty.
func (d *Design) Utilization() float64 {
	oa := d.OutlineArea()
	if oa <= 0 {
		return 0
	}
	return d.TotalModuleArea() / oa
}

// HardCount and SoftCount report the module mix.
func (d *Design) HardCount() int {
	n := 0
	for _, m := range d.Modules {
		if m.Kind == Hard {
			n++
		}
	}
	return n
}

// SoftCount returns the number of soft modules.
func (d *Design) SoftCount() int { return len(d.Modules) - d.HardCount() }

// maxModulePower bounds a module's nominal power in watts. The largest
// built-in module draws 0.61 W. The leakage metrics multiply and square
// power-map deviations in float64, which overflows long before MaxFloat64:
// with every module at 1e100 W the correlations read 0, at 1e154 W NaN,
// and at 1e308 W the entropy cache panics. At 1e6 W they are still sound.
const maxModulePower = 1e6

// The outline and every module side must lie in [minLength, maxLength] µm,
// and a module's intrinsic delay in [0, maxIntrinsicDelay] ns. The built-in
// designs stay within a 4000-8000 µm outline, 35-990 µm module sides and
// 0.047-0.169 ns. Far outside the bounds the flow's float arithmetic breaks
// on a design that is otherwise valid, and the Result cannot be encoded: an
// outline of 1e160 µm gives NaN correlations and a -Inf peak temperature,
// module sides of 1e200 µm or a delay of 1e308 ns an infinite critical
// delay, and a soft module 8.99e307 µm wide, or one whose area underflows
// to 0 (sides of 1e-300 µm), a NaN wirelength. A negative delay makes the
// critical delay read 0.
const (
	minLength         = 1e-3
	maxLength         = 1e6
	maxIntrinsicDelay = 1e6
)

// maxDies bounds the stack height. The paper and every built-in design
// stack two dies. The flow's work grows faster than linearly in the die
// count: on a 2-vCPU machine, a 2-module design at grid 16 and 10
// annealing iterations ran 2.2/6.6/21.6/84 s at 2/4/8/16 dies and did not
// finish in 300 s at 32.
const maxDies = 8

// Validate checks structural invariants and returns the first violation.
func (d *Design) Validate() error {
	if !inLength(d.OutlineW) || !inLength(d.OutlineH) {
		return fmt.Errorf("netlist: outline %gx%g µm outside [%g, %g] µm", d.OutlineW, d.OutlineH, minLength, maxLength)
	}
	if d.Dies < 1 || d.Dies > maxDies {
		return fmt.Errorf("netlist: dies %d outside [1, %d]", d.Dies, maxDies)
	}
	names := make(map[string]bool, len(d.Modules))
	for i, m := range d.Modules {
		if m == nil {
			return fmt.Errorf("netlist: nil module at index %d", i)
		}
		if m.Name == "" {
			return fmt.Errorf("netlist: unnamed module at index %d", i)
		}
		if names[m.Name] {
			return fmt.Errorf("netlist: duplicate module name %q", m.Name)
		}
		names[m.Name] = true
		if !inLength(m.W) || !inLength(m.H) {
			return fmt.Errorf("netlist: module %q footprint %gx%g µm outside [%g, %g] µm", m.Name, m.W, m.H, minLength, maxLength)
		}
		if m.Power < 0 || !finite(m.Power) {
			return fmt.Errorf("netlist: module %q has negative or non-finite power %g", m.Name, m.Power)
		}
		if m.Power > maxModulePower {
			return fmt.Errorf("netlist: module %q power %g W exceeds the %g W bound", m.Name, m.Power, maxModulePower)
		}
		if !(m.IntrinsicDelay >= 0 && m.IntrinsicDelay <= maxIntrinsicDelay) {
			return fmt.Errorf("netlist: module %q intrinsic delay %g ns outside [0, %g] ns", m.Name, m.IntrinsicDelay, maxIntrinsicDelay)
		}
		if !finite(m.MinAspect) || !finite(m.MaxAspect) ||
			m.Kind == Soft && (m.MinAspect <= 0 || m.MaxAspect < m.MinAspect) {
			return fmt.Errorf("netlist: module %q has invalid aspect bounds [%g,%g]", m.Name, m.MinAspect, m.MaxAspect)
		}
	}
	for ni, n := range d.Nets {
		if n == nil {
			return fmt.Errorf("netlist: nil net at index %d", ni)
		}
		if n.Degree() < 2 {
			return fmt.Errorf("netlist: net %q (index %d) has degree %d < 2", n.Name, ni, n.Degree())
		}
		for _, mi := range n.Modules {
			if mi < 0 || mi >= len(d.Modules) {
				return fmt.Errorf("netlist: net %q references module %d out of range", n.Name, mi)
			}
		}
		for _, ti := range n.Terminals {
			if ti < 0 || ti >= len(d.Terminals) {
				return fmt.Errorf("netlist: net %q references terminal %d out of range", n.Name, ti)
			}
		}
	}
	for i, t := range d.Terminals {
		if t == nil {
			return fmt.Errorf("netlist: nil terminal at index %d", i)
		}
		//lint:floateq input validation: terminal coordinates must sit exactly on the declared outline, both read from the same design
		onX := t.X == 0 || t.X == d.OutlineW
		//lint:floateq input validation: terminal coordinates must sit exactly on the declared outline, both read from the same design
		onY := t.Y == 0 || t.Y == d.OutlineH
		inX := t.X >= 0 && t.X <= d.OutlineW
		inY := t.Y >= 0 && t.Y <= d.OutlineH
		if !((onX && inY) || (onY && inX)) {
			return fmt.Errorf("netlist: terminal %q at (%g,%g) not on outline boundary", t.Name, t.X, t.Y)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf. The plain range checks
// alone would pass NaN, since every comparison with NaN is false.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// inLength reports whether a length in µm lies within [minLength, maxLength];
// NaN does not.
func inLength(v float64) bool { return v >= minLength && v <= maxLength }

// DegreeHistogram returns net degree -> count, with keys sorted ascending in
// DegreeList.
func (d *Design) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, n := range d.Nets {
		h[n.Degree()]++
	}
	return h
}

// Clone returns a deep copy of the design. Modules are copied by value, so
// the floorplanner may resize soft modules without mutating the input.
func (d *Design) Clone() *Design {
	c := &Design{
		Name:     d.Name,
		OutlineW: d.OutlineW, OutlineH: d.OutlineH,
		Dies: d.Dies,
	}
	c.Modules = make([]*Module, len(d.Modules))
	for i, m := range d.Modules {
		mm := *m
		c.Modules[i] = &mm
	}
	c.Nets = make([]*Net, len(d.Nets))
	for i, n := range d.Nets {
		nn := &Net{Name: n.Name}
		nn.Modules = append([]int(nil), n.Modules...)
		nn.Terminals = append([]int(nil), n.Terminals...)
		c.Nets[i] = nn
	}
	c.Terminals = make([]*Terminal, len(d.Terminals))
	for i, t := range d.Terminals {
		tt := *t
		c.Terminals[i] = &tt
	}
	return c
}
