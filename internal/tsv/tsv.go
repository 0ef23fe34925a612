// Package tsv plans through-silicon vias for two-die 3D floorplans: one
// signal TSV per cross-die net and traversed gap, keep-out-zone accounting,
// the rasterized copper-fraction maps the thermal solver consumes, and the
// dummy thermal TSVs the paper's post-processing inserts at the most
// correlation-stable bins (Sec. 6.2).
//
// Every via has one geometry, the Corblivar/HotSpot default the paper takes:
// a 5 um copper body on a 10 um pitch that includes the keep-out zone.
package tsv

import (
	"math"

	"repro/internal/floorplan"
	"repro/internal/geom"
)

// The via geometry (Corblivar/HotSpot defaults).
const (
	viaDiameter = 5.0  // um, copper body
	viaPitch    = 10.0 // um, center-to-center including the keep-out zone

	// cuAreaPerVia is one via's copper cross-section in um^2. The folded
	// constant has the bits of the run-time product math.Pi * r * r
	// (TestGeometryAreas).
	cuAreaPerVia = math.Pi * (viaDiameter / 2) * (viaDiameter / 2)
)

// Kind distinguishes the TSV roles.
type Kind int

const (
	// Signal TSVs carry a cross-die net.
	Signal Kind = iota
	// Dummy TSVs are thermally motivated only (the paper's post-processing
	// inserts them to destabilize leakage correlations).
	Dummy
)

func (k Kind) String() string {
	if k == Dummy {
		return "dummy"
	}
	return "signal"
}

// TSV is one via (or one via group placed as a unit) in an inter-die bond
// layer.
type TSV struct {
	Kind Kind
	// Pos is the via center in um, in die outline coordinates.
	Pos geom.Point
	// Net is the index of the net served (-1 for dummy TSVs).
	Net int
	// Count is the number of physical vias at this spot (> 1 for a dummy
	// group or a synthetic pattern's island).
	Count int
	// Gap is the inter-die gap the via traverses (gap g sits between die g
	// and die g+1); 0 in two-die stacks.
	Gap int
}

// Plan holds all TSVs of a floorplan.
type Plan struct {
	TSVs     []TSV
	OutlineW float64
	OutlineH float64
}

// PlanSignals places signal TSVs for every cross-die net of the layout, at
// the net's pin bounding-box center (the wirelength-optimal stitch point).
// A net spanning dies [lo, hi] receives one via per traversed gap (hi - lo
// vias), so taller stacks are planned correctly.
func PlanSignals(l *floorplan.Layout) *Plan {
	p := &Plan{OutlineW: l.OutlineW, OutlineH: l.OutlineH}
	for _, ni := range l.CrossDieNets() {
		lo, hi := netDieSpan(l, ni)
		for g := lo; g < hi; g++ {
			p.TSVs = append(p.TSVs, TSV{
				Kind:  Signal,
				Pos:   netCenter(l, ni),
				Net:   ni,
				Count: 1,
				Gap:   g,
			})
		}
	}
	return p
}

// netDieSpan returns the lowest and highest die touched by net ni's module
// pins.
func netDieSpan(l *floorplan.Layout, ni int) (lo, hi int) {
	lo, hi = l.Dies, -1
	for _, mi := range l.Design.Nets[ni].Modules {
		d := l.DieOf[mi]
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

func netCenter(l *floorplan.Layout, ni int) geom.Point {
	n := l.Design.Nets[ni]
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, mi := range n.Modules {
		c := l.Rects[mi].Center()
		minX = math.Min(minX, c.X)
		minY = math.Min(minY, c.Y)
		maxX = math.Max(maxX, c.X)
		maxY = math.Max(maxY, c.Y)
	}
	return geom.Point{X: clampF((minX+maxX)/2, 0, l.OutlineW), Y: clampF((minY+maxY)/2, 0, l.OutlineH)}
}

// AddDummyGap appends a dummy thermal TSV group (count vias) at the given
// bin center, in inter-die gap gap (gap 0 is the only gap of a two-die
// stack).
func (p *Plan) AddDummyGap(gap int, pos geom.Point, count int) {
	p.TSVs = append(p.TSVs, TSV{Kind: Dummy, Pos: pos, Net: -1, Count: count, Gap: gap})
}

// SignalCount returns the number of signal vias.
func (p *Plan) SignalCount() int {
	n := 0
	for _, t := range p.TSVs {
		if t.Kind == Signal {
			n += t.Count
		}
	}
	return n
}

// DummyCount returns the number of dummy vias.
func (p *Plan) DummyCount() int {
	n := 0
	for _, t := range p.TSVs {
		if t.Kind == Dummy {
			n += t.Count
		}
	}
	return n
}

// CuFractionMap rasterizes the whole plan (all gaps merged) onto an
// nx x ny grid of per-cell copper area fractions in [0, 1] — the thermal
// solver's TSV input for two-die stacks. Each via contributes its copper
// cross-section to the cell containing it.
func (p *Plan) CuFractionMap(nx, ny int) *geom.Grid {
	return p.cuMap(nx, ny, -1)
}

// CuFractionMapGap rasterizes only the vias of one inter-die gap; pair with
// thermal.Stack.SetTSVGapMap for stacks with more than two dies.
func (p *Plan) CuFractionMapGap(gap, nx, ny int) *geom.Grid {
	return p.cuMap(nx, ny, gap)
}

func (p *Plan) cuMap(nx, ny, gap int) *geom.Grid {
	g := geom.NewGrid(nx, ny)
	cellArea := (p.OutlineW / float64(nx)) * (p.OutlineH / float64(ny))
	for _, t := range p.TSVs {
		if gap >= 0 && t.Gap != gap {
			continue
		}
		i := clampI(int(t.Pos.X/p.OutlineW*float64(nx)), 0, nx-1)
		j := clampI(int(t.Pos.Y/p.OutlineH*float64(ny)), 0, ny-1)
		g.Add(i, j, cuAreaPerVia*float64(t.Count)/cellArea)
	}
	// Fractions cannot exceed full coverage.
	for i, v := range g.Data {
		if v > 1 {
			g.Data[i] = 1
		}
	}
	return g
}

// Clone returns a deep copy.
func (p *Plan) Clone() *Plan {
	c := *p
	c.TSVs = append([]TSV(nil), p.TSVs...)
	return &c
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
