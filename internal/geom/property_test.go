package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randRect(rng *rand.Rand) Rect {
	return Rect{rng.Float64() * 100, rng.Float64() * 100, rng.Float64()*50 + 0.1, rng.Float64()*50 + 0.1}
}

func TestPropertyIntersectCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		oa, ok1 := a.Intersect(b)
		ob, ok2 := b.Intersect(a)
		if ok1 != ok2 || (ok1 && oa != ob) {
			t.Fatalf("intersect not commutative: %+v %+v", a, b)
		}
	}
}

func TestPropertyIntersectIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := randRect(rng)
		o, ok := a.Intersect(a)
		if !ok || math.Abs(o.Area()-a.Area()) > 1e-9 {
			t.Fatalf("self-intersection must be identity: %+v vs %+v", a, o)
		}
	}
}

func TestPropertyOverlapBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		ov := a.OverlapArea(b)
		if ov < 0 || ov > math.Min(a.Area(), b.Area())+1e-9 {
			t.Fatalf("overlap %v out of bounds for %v, %v", ov, a.Area(), b.Area())
		}
	}
}

func TestPropertyAdjacencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		if a.Adjacent(b) != b.Adjacent(a) {
			t.Fatalf("adjacency not symmetric: %+v %+v", a, b)
		}
	}
}

func TestPropertyRasterizeMonotoneInValue(t *testing.T) {
	extent := Rect{0, 0, 100, 100}
	r := Rect{10, 10, 30, 30}
	g1 := NewGrid(10, 10)
	g2 := NewGrid(10, 10)
	g1.RasterizeDensity(extent, r, 1)
	g2.RasterizeDensity(extent, r, 2)
	for i := range g1.Data {
		if g2.Data[i] < g1.Data[i] {
			t.Fatal("rasterize must be monotone in total value")
		}
	}
}
