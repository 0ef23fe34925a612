package geom

import (
	"fmt"
	"math"
	"sort"
)

// Grid is a dense row-major raster of float64 samples. It is the common
// currency between the floorplanner (power maps), the thermal solver
// (temperature maps), and the leakage metrics.
type Grid struct {
	NX, NY int // columns, rows
	Data   []float64
}

// NewGrid allocates an NX x NY grid of zeros.
func NewGrid(nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("geom: invalid grid dims %dx%d", nx, ny))
	}
	return &Grid{NX: nx, NY: ny, Data: make([]float64, nx*ny)}
}

// Clone returns a deep copy of g.
func (g *Grid) Clone() *Grid {
	c := NewGrid(g.NX, g.NY)
	copy(c.Data, g.Data)
	return c
}

// At returns the sample at column i, row j.
func (g *Grid) At(i, j int) float64 { return g.Data[j*g.NX+i] }

// Set stores v at column i, row j.
func (g *Grid) Set(i, j int, v float64) { g.Data[j*g.NX+i] = v }

// Add accumulates v at column i, row j.
func (g *Grid) Add(i, j int, v float64) { g.Data[j*g.NX+i] += v }

// Fill sets every sample to v.
func (g *Grid) Fill(v float64) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Len returns the number of samples.
func (g *Grid) Len() int { return len(g.Data) }

// Mean returns the average sample value.
func (g *Grid) Mean() float64 {
	if len(g.Data) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range g.Data {
		s += v
	}
	return s / float64(len(g.Data))
}

// Sum returns the total of all samples.
func (g *Grid) Sum() float64 {
	s := 0.0
	for _, v := range g.Data {
		s += v
	}
	return s
}

// Min returns the smallest sample value (+Inf for an empty grid).
func (g *Grid) Min() float64 {
	m := math.Inf(1)
	for _, v := range g.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample value (-Inf for an empty grid).
func (g *Grid) Max() float64 {
	m := math.Inf(-1)
	for _, v := range g.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDev returns the population standard deviation of the samples.
func (g *Grid) StdDev() float64 {
	n := float64(len(g.Data))
	if n == 0 {
		return 0
	}
	mean := g.Mean()
	ss := 0.0
	for _, v := range g.Data {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / n)
}

// AddGrid accumulates o into g element-wise; the grids must share dimensions.
func (g *Grid) AddGrid(o *Grid) {
	g.mustMatch(o)
	for i, v := range o.Data {
		g.Data[i] += v
	}
}

// SubGrid subtracts o from g element-wise.
func (g *Grid) SubGrid(o *Grid) {
	g.mustMatch(o)
	for i, v := range o.Data {
		g.Data[i] -= v
	}
}

// ScaleBy multiplies every sample by f.
func (g *Grid) ScaleBy(f float64) {
	for i := range g.Data {
		g.Data[i] *= f
	}
}

func (g *Grid) mustMatch(o *Grid) {
	if g.NX != o.NX || g.NY != o.NY {
		panic(fmt.Sprintf("geom: grid dimension mismatch %dx%d vs %dx%d", g.NX, g.NY, o.NX, o.NY))
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples using
// nearest-rank on a sorted copy.
func (g *Grid) Quantile(q float64) float64 {
	if len(g.Data) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), g.Data...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// RasterizeDensity distributes a rectangle carrying total quantity `total`
// (e.g. Watts) as a density onto the grid, which spans `extent` (a rectangle
// in um): each covered cell gains total * overlapArea / r.Area().
func (g *Grid) RasterizeDensity(extent Rect, r Rect, total float64) {
	if r.Area() <= 0 {
		return
	}
	cw := extent.W / float64(g.NX)
	ch := extent.H / float64(g.NY)
	i0 := clampInt(int(math.Floor((r.X-extent.X)/cw)), 0, g.NX)
	i1 := clampInt(int(math.Ceil((r.MaxX()-extent.X)/cw)), 0, g.NX)
	j0 := clampInt(int(math.Floor((r.Y-extent.Y)/ch)), 0, g.NY)
	j1 := clampInt(int(math.Ceil((r.MaxY()-extent.Y)/ch)), 0, g.NY)
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			cell := Rect{
				X: extent.X + float64(i)*cw,
				Y: extent.Y + float64(j)*ch,
				W: cw, H: ch,
			}
			ov := r.OverlapArea(cell)
			if ov > 0 {
				g.Add(i, j, total*ov/r.Area())
			}
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CellCenter returns the physical center of cell (i, j) given the grid's
// physical extent.
func (g *Grid) CellCenter(extent Rect, i, j int) Point {
	cw := extent.W / float64(g.NX)
	ch := extent.H / float64(g.NY)
	return Point{
		X: extent.X + (float64(i)+0.5)*cw,
		Y: extent.Y + (float64(j)+0.5)*ch,
	}
}

// CellAt returns the cell indices containing physical point p, clamped to the
// grid bounds.
func (g *Grid) CellAt(extent Rect, p Point) (int, int) {
	cw := extent.W / float64(g.NX)
	ch := extent.H / float64(g.NY)
	i := clampInt(int((p.X-extent.X)/cw), 0, g.NX-1)
	j := clampInt(int((p.Y-extent.Y)/ch), 0, g.NY-1)
	return i, j
}
