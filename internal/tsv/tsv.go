// Package tsv plans through-silicon vias for two-die 3D floorplans: signal
// TSVs for every cross-die net (optionally clustered into TSV islands),
// keep-out-zone accounting, the rasterized copper-fraction maps the thermal
// solver consumes, and the dummy thermal TSVs the paper's post-processing
// inserts at the most correlation-stable bins (Sec. 6.2).
package tsv

import (
	"math"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/geom"
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
	// Count is the number of physical vias at this spot (islands > 1).
	Count int
	// Gap is the inter-die gap the via traverses (gap g sits between die g
	// and die g+1); 0 in two-die stacks.
	Gap int
}

// Geometry describes the physical via: the paper takes Corblivar/HotSpot
// defaults; a 5 um via with a 10 um pitch including keep-out.
type Geometry struct {
	Diameter float64 // um, copper body
	Pitch    float64 // um, center-to-center including keep-out zone
}

// DefaultGeometry returns the Corblivar-style default via.
func DefaultGeometry() Geometry {
	return Geometry{Diameter: 5, Pitch: 10}
}

// CuAreaPerVia returns the copper cross-section of one via in um^2.
func (g Geometry) CuAreaPerVia() float64 {
	r := g.Diameter / 2
	return math.Pi * r * r
}

// Plan holds all TSVs of a floorplan.
type Plan struct {
	TSVs     []TSV
	Geometry Geometry
	OutlineW float64
	OutlineH float64
}

// Options controls signal-TSV planning.
type Options struct {
	Geometry Geometry
	// IslandCapacity > 1 clusters nearby cross-die nets into shared TSV
	// islands of up to that many vias; 0/1 places one TSV per net at its
	// own position.
	IslandCapacity int
	// IslandGridN partitions the die into IslandGridN x IslandGridN
	// clustering buckets when islands are enabled. Default 8.
	IslandGridN int
}

func (o *Options) defaults() {
	if o.Geometry == (Geometry{}) {
		o.Geometry = DefaultGeometry()
	}
	if o.IslandGridN == 0 {
		o.IslandGridN = 8
	}
}

// PlanSignals places signal TSVs for every cross-die net of the layout, at
// the net's pin bounding-box center (the wirelength-optimal stitch point),
// optionally clustered into islands. A net spanning dies [lo, hi] receives
// one via per traversed gap (hi - lo vias), so taller stacks are planned
// correctly.
func PlanSignals(l *floorplan.Layout, opts Options) *Plan {
	opts.defaults()
	p := &Plan{Geometry: opts.Geometry, OutlineW: l.OutlineW, OutlineH: l.OutlineH}
	cross := l.CrossDieNets()
	if opts.IslandCapacity > 1 {
		p.planIslands(l, cross, opts)
		return p
	}
	for _, ni := range cross {
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

// planIslands buckets cross-die nets into a coarse grid and merges each
// bucket's nets into islands of up to IslandCapacity vias placed at the
// bucket's net centroid.
func (p *Plan) planIslands(l *floorplan.Layout, cross []int, opts Options) {
	ng := opts.IslandGridN
	type bucket struct {
		nets []int
		cx   float64
		cy   float64
	}
	buckets := make(map[int]*bucket)
	for _, ni := range cross {
		c := netCenter(l, ni)
		bi := clampI(int(c.X/l.OutlineW*float64(ng)), 0, ng-1)
		bj := clampI(int(c.Y/l.OutlineH*float64(ng)), 0, ng-1)
		key := bj*ng + bi
		b := buckets[key]
		if b == nil {
			b = &bucket{}
			buckets[key] = b
		}
		b.nets = append(b.nets, ni)
		b.cx += c.X
		b.cy += c.Y
	}
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		b := buckets[k]
		center := geom.Point{X: b.cx / float64(len(b.nets)), Y: b.cy / float64(len(b.nets))}
		for start := 0; start < len(b.nets); start += opts.IslandCapacity {
			end := start + opts.IslandCapacity
			if end > len(b.nets) {
				end = len(b.nets)
			}
			// The island's vias serve nets[start:end]; record one TSV entry
			// per net and traversed gap so bookkeeping stays exact, sharing
			// the position.
			for _, ni := range b.nets[start:end] {
				lo, hi := netDieSpan(l, ni)
				for g := lo; g < hi; g++ {
					p.TSVs = append(p.TSVs, TSV{Kind: Signal, Pos: center, Net: ni, Count: 1, Gap: g})
				}
			}
		}
	}
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
	cu := p.Geometry.CuAreaPerVia()
	for _, t := range p.TSVs {
		if gap >= 0 && t.Gap != gap {
			continue
		}
		i := clampI(int(t.Pos.X/p.OutlineW*float64(nx)), 0, nx-1)
		j := clampI(int(t.Pos.Y/p.OutlineH*float64(ny)), 0, ny-1)
		g.Add(i, j, cu*float64(t.Count)/cellArea)
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
