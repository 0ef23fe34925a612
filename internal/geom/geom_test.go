package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectArea(t *testing.T) {
	if got := (Rect{0, 0, 3, 4}).Area(); got != 12 {
		t.Fatalf("area = %v", got)
	}
}

func TestRectCenter(t *testing.T) {
	c := (Rect{1, 1, 2, 4}).Center()
	if c.X != 2 || c.Y != 3 {
		t.Fatalf("center = %+v", c)
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	o, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	if o != (Rect{5, 5, 5, 5}) {
		t.Fatalf("got %+v", o)
	}
}

func TestIntersectDisjointAndTouching(t *testing.T) {
	a := Rect{0, 0, 5, 5}
	if _, ok := a.Intersect(Rect{6, 0, 2, 2}); ok {
		t.Fatal("disjoint rects must not overlap")
	}
	if _, ok := a.Intersect(Rect{5, 0, 2, 2}); ok {
		t.Fatal("touching rects must not count as overlapping")
	}
}

func TestOverlapAreaSymmetric(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 4, 4}
	if a.OverlapArea(b) != b.OverlapArea(a) {
		t.Fatal("overlap area not symmetric")
	}
	if a.OverlapArea(b) != 4 {
		t.Fatalf("got %v", a.OverlapArea(b))
	}
}

func TestAdjacent(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{4, 0, 4, 4}, true},   // right abut
		{Rect{4, 4, 4, 4}, false},  // corner touch only
		{Rect{0, 4, 4, 4}, true},   // top abut
		{Rect{2, 2, 4, 4}, true},   // overlap counts
		{Rect{10, 0, 1, 1}, false}, // far away
		{Rect{-4, 1, 4, 1}, true},  // left abut
	}
	for i, c := range cases {
		if got := a.Adjacent(c.b); got != c.want {
			t.Errorf("case %d: Adjacent(%+v) = %v, want %v", i, c.b, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if !r.Contains(Point{0, 0}) {
		t.Fatal("lower-left corner should be inside")
	}
	if r.Contains(Point{2, 2}) {
		t.Fatal("upper-right corner should be outside (half-open)")
	}
}

func TestManhattanEuclid(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if p.Euclid(q) != 5 {
		t.Fatal("euclid")
	}
}

func TestPropertyIntersectionWithinBoth(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{mod(ax, 100), mod(ay, 100), mod(aw, 50) + 0.1, mod(ah, 50) + 0.1}
		b := Rect{mod(bx, 100), mod(by, 100), mod(bw, 50) + 0.1, mod(bh, 50) + 0.1}
		o, ok := a.Intersect(b)
		if !ok {
			return true
		}
		within := func(r Rect) bool {
			return o.X >= r.X && o.Y >= r.Y && o.MaxX() <= r.MaxX() && o.MaxY() <= r.MaxY()
		}
		return o.Area() <= a.Area()+1e-9 && o.Area() <= b.Area()+1e-9 && within(a) && within(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func mod(v, m float64) float64 {
	v = math.Abs(v)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return math.Mod(v, m)
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(4, 3)
	if g.Len() != 12 {
		t.Fatal("len")
	}
	g.Set(2, 1, 5)
	if g.At(2, 1) != 5 {
		t.Fatal("set/at")
	}
	g.Add(2, 1, 1)
	if g.At(2, 1) != 6 {
		t.Fatal("add")
	}
	if g.Sum() != 6 || g.Mean() != 0.5 {
		t.Fatalf("sum=%v mean=%v", g.Sum(), g.Mean())
	}
	if g.Max() != 6 || g.Min() != 0 {
		t.Fatal("min/max")
	}
}

func TestGridStdDev(t *testing.T) {
	g := NewGrid(2, 2)
	copy(g.Data, []float64{2, 4, 4, 6})
	want := math.Sqrt(2) // population stddev of {2,4,4,6}
	if math.Abs(g.StdDev()-want) > 1e-12 {
		t.Fatalf("got %v want %v", g.StdDev(), want)
	}
}

func TestGridCloneIndependence(t *testing.T) {
	g := NewGrid(2, 2)
	g.Set(0, 0, 1)
	c := g.Clone()
	c.Set(0, 0, 9)
	if g.At(0, 0) != 1 {
		t.Fatal("clone aliases source")
	}
}

func TestGridArith(t *testing.T) {
	a := NewGrid(2, 2)
	b := NewGrid(2, 2)
	a.Fill(3)
	b.Fill(1)
	a.AddGrid(b)
	if a.At(1, 1) != 4 {
		t.Fatal("addgrid")
	}
	a.SubGrid(b)
	if a.At(0, 1) != 3 {
		t.Fatal("subgrid")
	}
	a.ScaleBy(2)
	if a.Sum() != 24 {
		t.Fatal("scaleby")
	}
}

func TestGridDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(2, 2).AddGrid(NewGrid(3, 3))
}

func TestRasterizeConservation(t *testing.T) {
	extent := Rect{0, 0, 100, 100}
	g := NewGrid(10, 10)
	r := Rect{13, 27, 30, 40}
	g.RasterizeDensity(extent, r, 7.5)
	if math.Abs(g.Sum()-7.5) > 1e-9 {
		t.Fatalf("density rasterization must conserve total: got %v", g.Sum())
	}
}

func TestRasterizeClipsOutside(t *testing.T) {
	extent := Rect{0, 0, 100, 100}
	g := NewGrid(10, 10)
	// Half the rect hangs outside the extent; only the inside half lands.
	g.RasterizeDensity(extent, Rect{90, 0, 20, 10}, 2.0)
	if math.Abs(g.Sum()-1.0) > 1e-9 {
		t.Fatalf("expected half the mass inside, got %v", g.Sum())
	}
}

func TestCellCenterAndCellAtRoundTrip(t *testing.T) {
	extent := Rect{0, 0, 64, 32}
	g := NewGrid(16, 8)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			p := g.CellCenter(extent, i, j)
			ii, jj := g.CellAt(extent, p)
			if ii != i || jj != j {
				t.Fatalf("round trip failed at (%d,%d): got (%d,%d)", i, j, ii, jj)
			}
		}
	}
}

func TestCellAtClamps(t *testing.T) {
	extent := Rect{0, 0, 10, 10}
	g := NewGrid(5, 5)
	i, j := g.CellAt(extent, Point{-5, 100})
	if i != 0 || j != 4 {
		t.Fatalf("got (%d,%d)", i, j)
	}
}

func TestQuantile(t *testing.T) {
	g := NewGrid(5, 1)
	copy(g.Data, []float64{5, 1, 3, 2, 4})
	if got := g.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := g.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := g.Quantile(0.5); got != 3 {
		t.Fatalf("q0.5 = %v", got)
	}
}

func TestPropertyRasterizeDensityConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	extent := Rect{0, 0, 100, 100}
	for trial := 0; trial < 200; trial++ {
		g := NewGrid(8+rng.Intn(8), 8+rng.Intn(8))
		r := Rect{rng.Float64() * 80, rng.Float64() * 80, rng.Float64()*19 + 1, rng.Float64()*19 + 1}
		total := rng.Float64() * 10
		g.RasterizeDensity(extent, r, total)
		// The rect is fully inside the extent, so all mass must land.
		if r.MaxX() <= 100 && r.MaxY() <= 100 {
			if math.Abs(g.Sum()-total) > 1e-6 {
				t.Fatalf("trial %d: sum %v want %v (rect %+v)", trial, g.Sum(), total, r)
			}
		}
	}
}
