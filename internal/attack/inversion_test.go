package attack

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/thermal"
)

func TestAdjointIdentity(t *testing.T) {
	// <F(P), R> must equal <P, F^T(R)> for the linear (rise) part.
	cfg := thermal.DefaultConfig(16, 16, 4000, 4000, 2)
	fe := thermal.Fast(cfg, 0)
	p := []*geom.Grid{geom.NewGrid(16, 16), geom.NewGrid(16, 16)}
	r := []*geom.Grid{geom.NewGrid(16, 16), geom.NewGrid(16, 16)}
	p[0].Set(3, 4, 2)
	p[1].Set(10, 12, 1)
	r[0].Set(5, 5, 1)
	r[1].Set(2, 9, 3)

	fp := fe.Rises(p)
	ftr := fe.Adjoint(r)
	var lhs, rhs float64
	for d := 0; d < 2; d++ {
		for i := range fp[d].Data {
			lhs += fp[d].Data[i] * r[d].Data[i]
			rhs += p[d].Data[i] * ftr[d].Data[i]
		}
	}
	if math.Abs(lhs-rhs) > 1e-9*math.Max(math.Abs(lhs), 1) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestInvertRecoverssSyntheticPower(t *testing.T) {
	// Forward-model consistency: data generated BY the fast model must be
	// inverted back to a power map strongly correlated with the truth.
	cfg := thermal.DefaultConfig(24, 24, 4000, 4000, 2)
	fe := thermal.Fast(cfg, 0)
	truth := []*geom.Grid{geom.NewGrid(24, 24), geom.NewGrid(24, 24)}
	for j := 4; j < 9; j++ {
		for i := 4; i < 9; i++ {
			truth[0].Set(i, j, 0.1)
		}
	}
	for j := 15; j < 20; j++ {
		for i := 15; i < 20; i++ {
			truth[1].Set(i, j, 0.2)
		}
	}
	obs := fe.Estimate(truth)
	res := InvertPower(fe, obs, truth, cfg.Ambient, InversionOptions{Iterations: 1500})
	for d, f := range res.Fidelity {
		if f < 0.80 {
			t.Fatalf("die %d: inversion fidelity %v too low for self-consistent data", d, f)
		}
	}
}

func TestInvertNonNegative(t *testing.T) {
	cfg := thermal.DefaultConfig(16, 16, 4000, 4000, 2)
	fe := thermal.Fast(cfg, 0)
	obs := []*geom.Grid{geom.NewGrid(16, 16), geom.NewGrid(16, 16)}
	obs[0].Fill(cfg.Ambient - 5) // below-ambient observations
	obs[1].Fill(cfg.Ambient - 5)
	res := InvertPower(fe, obs, nil, cfg.Ambient, InversionOptions{Iterations: 50})
	for _, g := range res.EstPower {
		if g.Min() < 0 {
			t.Fatal("power estimate must stay non-negative")
		}
	}
}

func TestInvertDeviceEndToEnd(t *testing.T) {
	d := NewDevice(paResult(t), Sensors{N: 16, NoiseK: 0}, 21)
	res := InvertDevice(d, InversionOptions{Iterations: 150})
	mf := res.MeanFidelity()
	if math.IsNaN(mf) {
		t.Fatal("fidelity not scored")
	}
	if mf < 0.2 {
		t.Fatalf("noiseless inversion against the detailed model should carry signal: %v", mf)
	}
	if mf > 1.0 {
		t.Fatalf("fidelity %v out of range", mf)
	}
}

func TestMeanFidelityEmpty(t *testing.T) {
	var r InversionResult
	if !math.IsNaN(r.MeanFidelity()) {
		t.Fatal("expected NaN for unscored inversion")
	}
}
