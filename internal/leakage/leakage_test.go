package leakage

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func gridOf(nx, ny int, f func(i, j int) float64) *geom.Grid {
	g := geom.NewGrid(nx, ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			g.Set(i, j, f(i, j))
		}
	}
	return g
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	a := gridOf(8, 8, func(i, j int) float64 { return float64(i + j) })
	b := gridOf(8, 8, func(i, j int) float64 { return 3*float64(i+j) + 10 })
	if r := Pearson(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
}

func TestPearsonPerfectAnticorrelation(t *testing.T) {
	a := gridOf(8, 8, func(i, j int) float64 { return float64(i) })
	b := gridOf(8, 8, func(i, j int) float64 { return -2 * float64(i) })
	if r := Pearson(a, b); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonConstantMapZero(t *testing.T) {
	a := gridOf(4, 4, func(i, j int) float64 { return 5 })
	b := gridOf(4, 4, func(i, j int) float64 { return float64(i) })
	if r := Pearson(a, b); r != 0 {
		t.Fatalf("constant map must give r=0, got %v", r)
	}
}

func TestPearsonSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := gridOf(8, 8, func(i, j int) float64 { return rng.Float64() })
	b := gridOf(8, 8, func(i, j int) float64 { return rng.Float64() })
	if math.Abs(Pearson(a, b)-Pearson(b, a)) > 1e-12 {
		t.Fatal("pearson must be symmetric")
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson(geom.NewGrid(2, 2), geom.NewGrid(3, 3))
}

func TestPropertyPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gridOf(6, 6, func(i, j int) float64 { return rng.NormFloat64() })
		b := gridOf(6, 6, func(i, j int) float64 { return rng.NormFloat64() })
		r := Pearson(a, b)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPearsonAffineInvariant(t *testing.T) {
	f := func(seed int64, scale, offset float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) < 1e-6 || math.Abs(scale) > 1e6 {
			return true
		}
		if math.IsNaN(offset) || math.Abs(offset) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := gridOf(6, 6, func(i, j int) float64 { return rng.NormFloat64() })
		b := gridOf(6, 6, func(i, j int) float64 { return rng.NormFloat64() })
		r1 := Pearson(a, b)
		b2 := b.Clone()
		b2.ScaleBy(math.Abs(scale))
		for i := range b2.Data {
			b2.Data[i] += offset
		}
		r2 := Pearson(a, b2)
		return math.Abs(r1-r2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStabilityMapPerfectlyStableBin(t *testing.T) {
	// Bin (0,0): temperature follows power exactly across samples ->
	// stability 1. Bin (1,0): temperature is random -> |stability| < 1.
	m := 50
	rng := rand.New(rand.NewSource(2))
	powers := make([]*geom.Grid, m)
	temps := make([]*geom.Grid, m)
	for k := 0; k < m; k++ {
		p := geom.NewGrid(2, 1)
		tm := geom.NewGrid(2, 1)
		v := rng.Float64()
		p.Set(0, 0, v)
		tm.Set(0, 0, 300+10*v)
		p.Set(1, 0, rng.Float64())
		tm.Set(1, 0, 300+rng.Float64())
		powers[k], temps[k] = p, tm
	}
	stab := StabilityMap(powers, temps)
	if math.Abs(stab.At(0, 0)-1) > 1e-9 {
		t.Fatalf("bin (0,0) stability %v, want 1", stab.At(0, 0))
	}
	if math.Abs(stab.At(1, 0)) > 0.5 {
		t.Fatalf("random bin stability %v should be small", stab.At(1, 0))
	}
}

func TestStabilityConstantBinZero(t *testing.T) {
	powers := []*geom.Grid{geom.NewGrid(2, 2), geom.NewGrid(2, 2)}
	temps := []*geom.Grid{geom.NewGrid(2, 2), geom.NewGrid(2, 2)}
	stab := StabilityMap(powers, temps)
	if stab.Sum() != 0 {
		t.Fatal("constant bins must have stability 0")
	}
}

func TestMeanAbsStability(t *testing.T) {
	g := geom.NewGrid(2, 1)
	g.Set(0, 0, -0.5)
	g.Set(1, 0, 0.5)
	if got := MeanAbsStability(g); got != 0.5 {
		t.Fatalf("got %v", got)
	}
}

func TestMostStableBin(t *testing.T) {
	g := geom.NewGrid(3, 3)
	g.Set(1, 2, -0.9)
	g.Set(2, 0, 0.7)
	i, j, v := MostStableBin(g, nil)
	if i != 1 || j != 2 || v != 0.9 {
		t.Fatalf("got (%d,%d,%v)", i, j, v)
	}
	// Exclude the best bin; the second best must win.
	excl := make([]bool, 9)
	excl[2*3+1] = true
	i, j, v = MostStableBin(g, excl)
	if i != 2 || j != 0 || v != 0.7 {
		t.Fatalf("got (%d,%d,%v)", i, j, v)
	}
}

func TestNestedMeansSeparatesTwoLevels(t *testing.T) {
	// Left half value 1, right half value 10: exactly two classes.
	g := gridOf(8, 8, func(i, j int) float64 {
		if i < 4 {
			return 1
		}
		return 10
	})
	classes := NestedMeansClasses(g)
	seen := map[int]bool{}
	for _, c := range classes {
		seen[c] = true
	}
	if len(seen) != 2 {
		t.Fatalf("want 2 classes, got %d", len(seen))
	}
	// All left bins share a class; all right bins share the other.
	c0 := classes[0]
	for j := 0; j < 8; j++ {
		for i := 0; i < 4; i++ {
			if classes[j*8+i] != c0 {
				t.Fatal("left half split incorrectly")
			}
		}
	}
}

func TestNestedMeansConstantMapOneClass(t *testing.T) {
	g := gridOf(4, 4, func(i, j int) float64 { return 7 })
	classes := NestedMeansClasses(g)
	for _, c := range classes {
		if c != 0 {
			t.Fatal("constant map must be a single class")
		}
	}
}

func TestNestedMeansRespectsMaxDepth(t *testing.T) {
	// With the stop rule disabled (stop 0) only the depth bound ends the
	// bi-partitioning: 256 distinct values make exactly 2^5 classes.
	items := make([]item, 256)
	for i := range items {
		items[i] = item{float64(i), i}
	}
	classOf := make([]int, len(items))
	if n := nestedMeansSplit(items, classOf, 0); n != 1<<entropyMaxDepth {
		t.Fatalf("depth %d allows %d classes, got %d", entropyMaxDepth, 1<<entropyMaxDepth, n)
	}
}

func TestSpatialEntropyZeroForConstantMap(t *testing.T) {
	g := gridOf(8, 8, func(i, j int) float64 { return 3 })
	if s := SpatialEntropy(g); s != 0 {
		t.Fatalf("constant map entropy %v, want 0", s)
	}
}

// TestSpatialEntropyPrinciple verifies Claramunt's two principles as the
// paper uses them: interleaved (close) different-valued entities score
// higher than segregated ones.
func TestSpatialEntropyPrinciple(t *testing.T) {
	// Segregated: left half low, right half high.
	seg := gridOf(8, 8, func(i, j int) float64 {
		if i < 4 {
			return 1
		}
		return 10
	})
	// Interleaved checkerboard of the same two values.
	inter := gridOf(8, 8, func(i, j int) float64 {
		if (i+j)%2 == 0 {
			return 1
		}
		return 10
	})
	sSeg := SpatialEntropy(seg)
	sInter := SpatialEntropy(inter)
	if sInter <= sSeg {
		t.Fatalf("interleaved (%v) must exceed segregated (%v)", sInter, sSeg)
	}
}

func TestSpatialEntropyMoreGradientsMoreEntropy(t *testing.T) {
	// Smooth, locally-uniform map vs a map with many large gradients.
	smooth := gridOf(16, 16, func(i, j int) float64 { return 1 + 0.01*float64(i) })
	rng := rand.New(rand.NewSource(4))
	spiky := gridOf(16, 16, func(i, j int) float64 { return rng.Float64() * 10 })
	sSmooth := SpatialEntropy(smooth)
	sSpiky := SpatialEntropy(spiky)
	if sSpiky <= sSmooth {
		t.Fatalf("spiky map (%v) must exceed smooth map (%v)", sSpiky, sSmooth)
	}
}

func TestSumPairwiseAbs(t *testing.T) {
	v := []float64{1, 3, 6}
	// |1-3| + |1-6| + |3-6| = 2 + 5 + 3 = 10
	if got := sumPairwiseAbs(v); got != 10 {
		t.Fatalf("got %v", got)
	}
}

func TestSumCrossAbs(t *testing.T) {
	a := []float64{0, 2}
	b := []float64{1, 3}
	// |0-1|+|0-3|+|2-1|+|2-3| = 1+3+1+1 = 6
	if got := sumCrossAbsSorted(a, b, prefixSums(b)); got != 6 {
		t.Fatalf("got %v", got)
	}
}

func TestAvgIntraManhattanBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(rng.Intn(10))
		ys[i] = float64(rng.Intn(10))
	}
	want := 0.0
	pairs := 0
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			want += math.Abs(xs[i]-xs[j]) + math.Abs(ys[i]-ys[j])
			pairs++
		}
	}
	want /= float64(pairs)
	if got := avgIntraManhattan(xs, ys); math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAvgInterManhattanBruteForce(t *testing.T) {
	// Class = bins {(0,0), (1,0)}; all = 2x2 grid.
	cx := []float64{0, 1}
	cy := []float64{0, 0}
	sortedAllX := []float64{0, 0, 1, 1}
	sortedAllY := []float64{0, 0, 1, 1}
	// Others: (0,1), (1,1).
	// d((0,0),(0,1)) = 1; d((0,0),(1,1)) = 2; d((1,0),(0,1)) = 2; d((1,0),(1,1)) = 1.
	want := (1.0 + 2 + 2 + 1) / 4
	got := avgInterManhattanPre(cx, cy, sortedAllX, prefixSums(sortedAllX), sortedAllY, prefixSums(sortedAllY))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestSumCrossAbsSortedBruteForce pins the shared-prefix cross sum against a
// direct double loop on random inputs.
func TestSumCrossAbsSortedBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		A := make([]float64, 1+rng.Intn(12))
		B := make([]float64, 1+rng.Intn(30))
		for i := range A {
			A[i] = math.Floor(rng.Float64() * 8)
		}
		for i := range B {
			B[i] = math.Floor(rng.Float64() * 8)
		}
		want := 0.0
		for _, a := range A {
			for _, b := range B {
				want += math.Abs(a - b)
			}
		}
		sorted := append([]float64(nil), B...)
		sort.Float64s(sorted)
		got := sumCrossAbsSorted(A, sorted, prefixSums(sorted))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestPropertySpatialEntropyNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gridOf(8, 8, func(i, j int) float64 { return rng.Float64() * 5 })
		return SpatialEntropy(g) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
