package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestPropertyStabilityBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := 5 + rng.Intn(20)
		powers := make([]*geom.Grid, m)
		temps := make([]*geom.Grid, m)
		for k := 0; k < m; k++ {
			p := geom.NewGrid(4, 4)
			tm := geom.NewGrid(4, 4)
			for i := range p.Data {
				p.Data[i] = rng.Float64()
				tm.Data[i] = 300 + rng.Float64()*20
			}
			powers[k], temps[k] = p, tm
		}
		stab := StabilityMap(powers, temps)
		for _, v := range stab.Data {
			if v < -1-1e-9 || v > 1+1e-9 {
				t.Fatalf("stability %v out of [-1,1]", v)
			}
		}
	}
}

func TestPropertyNestedMeansClassesOrderedByPower(t *testing.T) {
	// Class ids are assigned in ascending power order: the mean power of
	// class c must not exceed that of class c+1.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		g := geom.NewGrid(8, 8)
		for i := range g.Data {
			g.Data[i] = rng.Float64() * 10
		}
		classes := NestedMeansClasses(g)
		nC := 0
		for _, c := range classes {
			if c+1 > nC {
				nC = c + 1
			}
		}
		sums := make([]float64, nC)
		counts := make([]float64, nC)
		for i, c := range classes {
			sums[c] += g.Data[i]
			counts[c]++
		}
		prev := math.Inf(-1)
		for c := 0; c < nC; c++ {
			if counts[c] == 0 {
				continue
			}
			mean := sums[c] / counts[c]
			if mean < prev-1e-9 {
				t.Fatalf("class %d mean %v below previous %v", c, mean, prev)
			}
			prev = mean
		}
	}
}

func TestPropertyNestedMeansPartitionComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := geom.NewGrid(10, 10)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	classes := NestedMeansClasses(g)
	if len(classes) != 100 {
		t.Fatal("every bin must be classified")
	}
	for _, c := range classes {
		if c < 0 {
			t.Fatal("negative class id")
		}
	}
}

func TestPropertySpatialEntropyPermutationSensitive(t *testing.T) {
	// Spatial entropy depends on WHERE values sit, not just their
	// histogram: scrambling a segregated map must change S.
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
	sSeg := SpatialEntropy(seg)
	rng := rand.New(rand.NewSource(4))
	scram := seg.Clone()
	rng.Shuffle(len(scram.Data), func(a, b int) {
		scram.Data[a], scram.Data[b] = scram.Data[b], scram.Data[a]
	})
	sScram := SpatialEntropy(scram)
	if math.Abs(sSeg-sScram) < 1e-6 {
		t.Fatalf("scrambling should change spatial entropy: %v vs %v", sSeg, sScram)
	}
	// Classical (non-spatial) Shannon term is permutation-invariant, so
	// the scrambled (interleaved) map must score HIGHER (closer different
	// entities).
	if sScram <= sSeg {
		t.Fatalf("interleaving must raise spatial entropy: %v vs %v", sScram, sSeg)
	}
}

func TestPropertyMaskedPearsonSubsetsFullMap(t *testing.T) {
	// A full mask equals the unmasked Pearson.
	rng := rand.New(rand.NewSource(5))
	p := geom.NewGrid(6, 6)
	tm := geom.NewGrid(6, 6)
	for i := range p.Data {
		p.Data[i] = rng.Float64()
		tm.Data[i] = rng.Float64()
	}
	mask := make([]bool, len(p.Data))
	for i := range mask {
		mask[i] = true
	}
	if math.Abs(MaskedPearson(p, tm, mask)-Pearson(p, tm)) > 1e-12 {
		t.Fatal("full mask must equal unmasked correlation")
	}
}

func TestMaskedPearsonTinyMask(t *testing.T) {
	p := geom.NewGrid(4, 4)
	tm := geom.NewGrid(4, 4)
	mask := make([]bool, 16)
	mask[3] = true
	if MaskedPearson(p, tm, mask) != 0 {
		t.Fatal("single-bin mask must yield 0")
	}
}

func TestPropertySVFScaleInvariant(t *testing.T) {
	// Scaling all thermal maps by a positive constant must not change SVF
	// (distance correlations are scale-covariant).
	rng := rand.New(rand.NewSource(6))
	m := 10
	powers := make([]*geom.Grid, m)
	temps := make([]*geom.Grid, m)
	for k := 0; k < m; k++ {
		p := geom.NewGrid(5, 5)
		tm := geom.NewGrid(5, 5)
		for i := range p.Data {
			p.Data[i] = rng.Float64()
			tm.Data[i] = 300 + 0.5*p.Data[i] + 0.1*rng.Float64()
		}
		powers[k], temps[k] = p, tm
	}
	base := SVF(powers, temps)
	scaled := make([]*geom.Grid, m)
	for k := range temps {
		s := temps[k].Clone()
		s.ScaleBy(7)
		scaled[k] = s
	}
	if math.Abs(SVF(powers, scaled)-base) > 1e-9 {
		t.Fatal("SVF must be scale invariant in the channel")
	}
}
