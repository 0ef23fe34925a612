package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// patchRandomBins perturbs k random bins the way the annealing loop patches
// power maps (subtract/re-add footprints): each touched bin gets a new
// non-negative value. Returns the pre-patch values for reverts.
func patchRandomBins(g *geom.Grid, rng *rand.Rand, k int) (bins []int, old []float64) {
	for t := 0; t < k; t++ {
		b := rng.Intn(len(g.Data))
		bins = append(bins, b)
		old = append(old, g.Data[b])
		g.Data[b] = rng.Float64() * 2
	}
	return bins, old
}

// TestEntropyCacheMatchesFullOverRandomPatches is the entropy half of the
// incremental-vs-full equivalence contract: over 1k journaled patches with
// rejections interleaved (a rejected patch restores the exact old values and
// the cache must re-converge without any rollback call), every Update must
// reproduce SpatialEntropy on the same map within 1e-9 — in practice bit
// for bit, since the histogram evaluation is exact.
func TestEntropyCacheMatchesFullOverRandomPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Non-square grid so x/y histogram indexing cannot silently swap.
	g := geom.NewGrid(12, 20)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	c := NewEntropyCache()
	check := func(step int, wantPatched bool) {
		got, patched := c.Update(g)
		want := SpatialEntropy(g)
		if d := math.Abs(got - want); d > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("step %d: cache %v vs full %v (|diff| %g)", step, got, want, d)
		}
		if patched != wantPatched {
			t.Fatalf("step %d: patched=%v, want %v", step, patched, wantPatched)
		}
	}
	check(-1, false) // first use: full rebuild
	patches := 0
	for i := 0; i < 1000; i++ {
		bins, old := patchRandomBins(g, rng, 1+rng.Intn(6))
		check(i, true)
		patches++
		if rng.Float64() < 0.5 {
			// Rejection: restore the exact pre-patch values (the journal
			// restores map bytes); the cache self-syncs on the next Update.
			for k := len(bins) - 1; k >= 0; k-- {
				g.Data[bins[k]] = old[k]
			}
			check(i, true)
		}
	}
	if patches == 0 {
		t.Fatal("no patches exercised")
	}
}

// TestEntropyCacheClassesMatchFull pins the maintained classification
// against NestedMeansClasses after heavy patching: identical class ids for
// every bin (class monotonicity and the tie-handling argument both follow
// from this equality plus the existing NestedMeansClasses property tests).
func TestEntropyCacheClassesMatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := geom.NewGrid(16, 16)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	c := NewEntropyCache()
	c.Update(g)
	for i := 0; i < 200; i++ {
		patchRandomBins(g, rng, 1+rng.Intn(8))
		c.Update(g)
		want := NestedMeansClasses(g)
		got := c.classes()
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("step %d bin %d: cache class %d != full class %d", i, b, got[b], want[b])
			}
		}
	}
}

// TestEntropyCachePermutationSensitive mirrors the SpatialEntropy
// permutation property through the cache: scrambling a segregated map must
// raise the cached entropy exactly as it raises the full metric.
func TestEntropyCachePermutationSensitive(t *testing.T) {
	seg := geom.NewGrid(8, 8)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			if i < 4 {
				seg.Set(i, j, 1)
			} else {
				seg.Set(i, j, 10)
			}
		}
	}
	scram := seg.Clone()
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(scram.Data), func(a, b int) {
		scram.Data[a], scram.Data[b] = scram.Data[b], scram.Data[a]
	})
	c := NewEntropyCache()
	sSeg, _ := c.Update(seg)
	sScram, _ := c.Update(scram) // wholesale change: internal rebuild path
	if sSeg != SpatialEntropy(seg) {
		t.Fatalf("cached segregated entropy %v diverges from full", sSeg)
	}
	if sScram != SpatialEntropy(scram) {
		t.Fatalf("cached scrambled entropy %v diverges from full", sScram)
	}
	if sScram <= sSeg {
		t.Fatalf("interleaving must raise spatial entropy: %v vs %v", sScram, sSeg)
	}
}

// TestEntropyCacheWholesaleChangeRebuilds verifies the patch/rebuild
// threshold: changing most bins (a voltage-scale change touches every bin)
// must fall back to the rebuild path and still return the exact entropy.
func TestEntropyCacheWholesaleChangeRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := geom.NewGrid(10, 10)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	c := NewEntropyCache()
	c.Update(g)
	for i := range g.Data {
		g.Data[i] *= 1.3
	}
	got, patched := c.Update(g)
	if patched {
		t.Fatal("wholesale change must take the rebuild path")
	}
	if want := SpatialEntropy(g); got != want {
		t.Fatalf("rebuilt entropy %v != full %v", got, want)
	}
	// An identical map must be served without work and count as patched.
	if _, patched := c.Update(g); !patched {
		t.Fatal("unchanged map must be served from cache")
	}
}

// --- validation error paths --------------------------------------------------

func TestValidatePowerMap(t *testing.T) {
	good := geom.NewGrid(4, 4)
	if err := ValidatePowerMap(good); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	if err := ValidatePowerMap(nil); err == nil {
		t.Fatal("nil map accepted")
	}
	if err := ValidatePowerMap(&geom.Grid{}); err == nil {
		t.Fatal("empty map accepted")
	}
	mismatched := &geom.Grid{NX: 3, NY: 3, Data: make([]float64, 4)}
	if err := ValidatePowerMap(mismatched); err == nil {
		t.Fatal("dimension-mismatched map accepted")
	}
	bad := geom.NewGrid(2, 2)
	bad.Data[1] = math.NaN()
	if err := ValidatePowerMap(bad); err == nil {
		t.Fatal("NaN map accepted")
	}
	bad.Data[1] = math.Inf(-1)
	if err := ValidatePowerMap(bad); err == nil {
		t.Fatal("Inf map accepted")
	}
}

func TestSpatialEntropyPanicsOnInvalidInputs(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: panic expected", name)
			}
		}()
		fn()
	}
	g := geom.NewGrid(4, 4)
	g.Data[5] = math.NaN()
	mustPanic("NaN map", func() { SpatialEntropy(g) })
	mustPanic("nil map", func() { NestedMeansClasses(nil) })
	mustPanic("empty map", func() { SpatialEntropy(&geom.Grid{}) })
	mustPanic("cache nil map", func() {
		NewEntropyCache().Update(nil)
	})
}
