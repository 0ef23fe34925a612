// Package activity models runtime activity of the 3D IC's modules. The
// paper impersonates an attacker triggering varying activity patterns by
// modelling every module's power as a Gaussian distribution around its
// nominal value with a 10% standard deviation (Sec. 6.2), evaluating the
// steady-state temperatures for each sample. This package provides that
// sampler plus the five synthetic power-distribution scenarios of the
// exploratory study (Sec. 3 / Figure 2).
package activity

import (
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Sampler draws per-module power vectors around the nominal powers.
type Sampler struct {
	nominal []float64
	sigma   float64 // relative std dev
}

// NewSamplerFromPowers builds a sampler over explicit nominal powers
// (e.g. voltage-scaled ones).
func NewSamplerFromPowers(nominal []float64, sigmaFrac float64) *Sampler {
	return &Sampler{nominal: append([]float64(nil), nominal...), sigma: sigmaFrac}
}

// Sample draws one activity pattern: power[m] ~ N(nominal[m], sigma*nominal[m]),
// truncated at zero (modules cannot produce negative power).
func (s *Sampler) Sample(rng *rand.Rand) []float64 {
	out := make([]float64, len(s.nominal))
	for m, p := range s.nominal {
		v := p * (1 + s.sigma*rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		out[m] = v
	}
	return out
}

// --- Figure 2 power-distribution scenarios -----------------------------------

// PowerPattern names the five power-density scenarios of the paper's
// exploratory experiments: "globally uniform, locally uniform, medium
// gradients, small gradients, and large gradients".
type PowerPattern int

const (
	GloballyUniform PowerPattern = iota
	LocallyUniform
	MediumGradients
	SmallGradients
	LargeGradients
	NumPowerPatterns
)

func (p PowerPattern) String() string {
	switch p {
	case GloballyUniform:
		return "globally-uniform"
	case LocallyUniform:
		return "locally-uniform"
	case MediumGradients:
		return "medium-gradients"
	case SmallGradients:
		return "small-gradients"
	case LargeGradients:
		return "large-gradients"
	default:
		return "power-pattern?"
	}
}

// AllPowerPatterns lists the five scenarios in paper order.
func AllPowerPatterns() []PowerPattern {
	return []PowerPattern{
		GloballyUniform, LocallyUniform, MediumGradients,
		SmallGradients, LargeGradients,
	}
}

// GeneratePowerMap synthesizes an nx x ny power map (cell values in Watts,
// summing to totalW) of the given scenario.
func GeneratePowerMap(p PowerPattern, nx, ny int, totalW float64, rng *rand.Rand) *geom.Grid {
	g := geom.NewGrid(nx, ny)
	switch p {
	case GloballyUniform:
		g.Fill(1)
	case LocallyUniform:
		// 4x4 regions, each at one of a few discrete power regimes.
		regimes := []float64{0.5, 1.0, 1.5, 2.0}
		nr := 4
		for rj := 0; rj < nr; rj++ {
			for ri := 0; ri < nr; ri++ {
				v := regimes[rng.Intn(len(regimes))]
				for j := rj * ny / nr; j < (rj+1)*ny/nr; j++ {
					for i := ri * nx / nr; i < (ri+1)*nx/nr; i++ {
						g.Set(i, j, v)
					}
				}
			}
		}
	case SmallGradients:
		addBlobs(g, rng, 10, 0.3, float64(nx)/3)
	case MediumGradients:
		addBlobs(g, rng, 8, 1.5, float64(nx)/5)
	case LargeGradients:
		addBlobs(g, rng, 5, 6.0, float64(nx)/10)
	}
	// Normalize to the requested budget.
	if s := g.Sum(); s > 0 {
		g.ScaleBy(totalW / s)
	} else {
		g.Fill(totalW / float64(nx*ny))
	}
	return g
}

// addBlobs lays a base level plus n Gaussian blobs of the given relative
// amplitude and radius (in cells).
func addBlobs(g *geom.Grid, rng *rand.Rand, n int, amp, radius float64) {
	g.Fill(1)
	for b := 0; b < n; b++ {
		cx := rng.Float64() * float64(g.NX)
		cy := rng.Float64() * float64(g.NY)
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				dx := (float64(i) + 0.5 - cx) / radius
				dy := (float64(j) + 0.5 - cy) / radius
				g.Add(i, j, amp*math.Exp(-(dx*dx+dy*dy)/2))
			}
		}
	}
}
