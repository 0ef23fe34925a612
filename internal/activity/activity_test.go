package activity

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
)

func TestSampleMeanAndSpread(t *testing.T) {
	des := bench.MustGenerate("n100")
	l := floorplan.New(des).Pack()
	s := NewSamplerFromPowers(l.NominalPowers(), 0.10)
	rng := rand.New(rand.NewSource(1))
	n := 2000
	sums := make([]float64, len(des.Modules))
	sqs := make([]float64, len(des.Modules))
	for k := 0; k < n; k++ {
		p := s.Sample(rng)
		for m, v := range p {
			sums[m] += v
			sqs[m] += v * v
		}
	}
	for m, mod := range l.Design.Modules {
		mean := sums[m] / float64(n)
		if math.Abs(mean-mod.Power) > 0.02*mod.Power+1e-12 {
			t.Fatalf("module %d mean %v, nominal %v", m, mean, mod.Power)
		}
		std := math.Sqrt(sqs[m]/float64(n) - mean*mean)
		if mod.Power > 1e-6 {
			rel := std / mod.Power
			if rel < 0.07 || rel > 0.13 {
				t.Fatalf("module %d relative std %v, want ~0.10", m, rel)
			}
		}
	}
}

func TestSampleNonNegative(t *testing.T) {
	s := NewSamplerFromPowers([]float64{0.001}, 5.0) // huge sigma forces truncation
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 1000; k++ {
		if v := s.Sample(rng)[0]; v < 0 {
			t.Fatal("negative power sampled")
		}
	}
}

func TestSamplerDeterministicWithSeed(t *testing.T) {
	s := NewSamplerFromPowers([]float64{1, 2, 3}, 0.1)
	a := s.Sample(rand.New(rand.NewSource(7)))
	b := s.Sample(rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce samples")
		}
	}
}

func TestGeneratePowerMapBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range AllPowerPatterns() {
		g := GeneratePowerMap(p, 32, 32, 7.5, rng)
		if math.Abs(g.Sum()-7.5) > 1e-9 {
			t.Fatalf("%v: total %v, want 7.5", p, g.Sum())
		}
		if g.Min() < 0 {
			t.Fatalf("%v: negative power", p)
		}
	}
}

func TestGloballyUniformIsFlat(t *testing.T) {
	g := GeneratePowerMap(GloballyUniform, 16, 16, 4, rand.New(rand.NewSource(5)))
	first := g.At(0, 0)
	for _, v := range g.Data {
		if math.Abs(v-first) > 1e-12 {
			t.Fatal("globally uniform map must be constant")
		}
	}
}

func TestLargeGradientsSpikier(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	small := GeneratePowerMap(SmallGradients, 32, 32, 10, rng)
	large := GeneratePowerMap(LargeGradients, 32, 32, 10, rng)
	// Relative spread must be clearly higher for the large-gradient map.
	relSmall := small.StdDev() / small.Mean()
	relLarge := large.StdDev() / large.Mean()
	if relLarge <= relSmall {
		t.Fatalf("large gradients (%v) must be spikier than small (%v)", relLarge, relSmall)
	}
}

func TestLocallyUniformHasRegions(t *testing.T) {
	g := GeneratePowerMap(LocallyUniform, 32, 32, 10, rand.New(rand.NewSource(7)))
	// Values within one 8x8 region are constant.
	v := g.At(0, 0)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			if g.At(i, j) != v {
				t.Fatal("region not uniform")
			}
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range AllPowerPatterns() {
		if p.String() == "power-pattern?" {
			t.Fatalf("pattern %d missing name", p)
		}
	}
}
