package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randomMaps(rng *rand.Rand, m, nx, ny int) []*geom.Grid {
	out := make([]*geom.Grid, m)
	for k := range out {
		g := geom.NewGrid(nx, ny)
		for i := range g.Data {
			g.Data[i] = rng.Float64()
		}
		out[k] = g
	}
	return out
}

func TestSVFPerfectChannel(t *testing.T) {
	// Thermal map = affine image of the power map: the side channel
	// preserves all pairwise structure, SVF -> 1.
	rng := rand.New(rand.NewSource(1))
	powers := randomMaps(rng, 12, 6, 6)
	temps := make([]*geom.Grid, len(powers))
	for k, p := range powers {
		tm := p.Clone()
		tm.ScaleBy(3)
		for i := range tm.Data {
			tm.Data[i] += 300
		}
		temps[k] = tm
	}
	if svf := SVF(powers, temps); svf < 0.999 {
		t.Fatalf("perfect channel should give SVF ~1, got %v", svf)
	}
}

func TestSVFUselessChannel(t *testing.T) {
	// Thermal maps unrelated to power maps: SVF ~ 0.
	rng := rand.New(rand.NewSource(2))
	powers := randomMaps(rng, 14, 6, 6)
	temps := randomMaps(rng, 14, 6, 6)
	if svf := math.Abs(SVF(powers, temps)); svf > 0.35 {
		t.Fatalf("unrelated channel should give SVF ~0, got %v", svf)
	}
}

func TestSVFDegradedChannelOrdering(t *testing.T) {
	// Adding noise to the channel must not raise SVF.
	rng := rand.New(rand.NewSource(3))
	powers := randomMaps(rng, 12, 6, 6)
	mk := func(noise float64) []*geom.Grid {
		temps := make([]*geom.Grid, len(powers))
		nrng := rand.New(rand.NewSource(99))
		for k, p := range powers {
			tm := p.Clone()
			for i := range tm.Data {
				tm.Data[i] += noise * nrng.NormFloat64()
			}
			temps[k] = tm
		}
		return temps
	}
	clean := SVF(powers, mk(0.01))
	noisy := SVF(powers, mk(2.0))
	if noisy >= clean {
		t.Fatalf("noise should lower SVF: clean %v noisy %v", clean, noisy)
	}
}

func TestSVFTooFewSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	powers := randomMaps(rng, 2, 4, 4)
	temps := randomMaps(rng, 2, 4, 4)
	if svf := SVF(powers, temps); svf != 0 {
		t.Fatalf("got %v for degenerate sample count", svf)
	}
}

func TestGridDistance(t *testing.T) {
	a := geom.NewGrid(2, 1)
	b := geom.NewGrid(2, 1)
	a.Set(0, 0, 3)
	b.Set(1, 0, 4)
	if d := gridDistance(a, b); d != 5 {
		t.Fatalf("distance %v, want 5", d)
	}
}
