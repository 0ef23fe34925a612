package thermal

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestSolverOptsDefaults(t *testing.T) {
	var o SolverOpts
	o.defaults()
	if o.Tol != 1e-5 || o.MaxSweeps != 20000 {
		t.Fatalf("defaults: %+v", o)
	}
	w := sorOmega(64, 64)
	if w <= 1 || w >= 2 {
		t.Fatalf("omega %v out of (1,2)", w)
	}
	// Larger grids want omega closer to 2; the larger side sets it.
	if sorOmega(256, 256) <= w {
		t.Fatal("omega must grow with grid size")
	}
	if sorOmega(16, 64) != w || sorOmega(64, 16) != w {
		t.Fatal("omega must follow the larger grid side")
	}
}

func TestSolverRespectsMaxSweeps(t *testing.T) {
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(0, uniformPower(16, 16, 5))
	_, st := s.SolveSteady(nil, SolverOpts{Tol: 1e-15, MaxSweeps: 7})
	if st.Sweeps != 7 || st.Converged {
		t.Fatalf("expected capped non-convergence: %+v", st)
	}
	if st.Residual <= 0 {
		t.Fatal("residual must be reported")
	}
}

func TestTighterToleranceMoreSweeps(t *testing.T) {
	run := func(tol float64) int {
		s := NewStack(testConfig(16, 16))
		s.SetDiePower(0, uniformPower(16, 16, 5))
		_, st := s.SolveSteady(nil, SolverOpts{Tol: tol})
		return st.Sweeps
	}
	loose := run(1e-2)
	tight := run(1e-7)
	if tight <= loose {
		t.Fatalf("tighter tolerance should cost sweeps: %d vs %d", tight, loose)
	}
}

func TestSuperposition(t *testing.T) {
	// T(P1 + P2) - amb = (T(P1) - amb) + (T(P2) - amb) for the linear model.
	nx := 12
	p1 := geom.NewGrid(nx, nx)
	p1.Set(2, 2, 3)
	p2 := geom.NewGrid(nx, nx)
	p2.Set(9, 9, 2)
	solve := func(p *geom.Grid) *geom.Grid {
		s := NewStack(testConfig(nx, nx))
		s.SetDiePower(0, p)
		sol, _ := s.SolveSteady(nil, SolverOpts{Tol: 1e-8})
		return sol.DieTemp(0)
	}
	t1 := solve(p1)
	t2 := solve(p2)
	sum := p1.Clone()
	sum.AddGrid(p2)
	t12 := solve(sum)
	amb := 293.0
	for i := range t12.Data {
		want := (t1.Data[i] - amb) + (t2.Data[i] - amb)
		got := t12.Data[i] - amb
		if math.Abs(got-want) > 0.02*math.Max(want, 0.1) {
			t.Fatalf("superposition violated at %d: %v vs %v", i, got, want)
		}
	}
}

func TestSinkResistanceControlsRise(t *testing.T) {
	run := func(rSink float64) float64 {
		cfg := testConfig(12, 12)
		cfg.RSink = rSink
		s := NewStack(cfg)
		s.SetDiePower(1, uniformPower(12, 12, 10))
		sol, _ := s.SolveSteady(nil, SolverOpts{})
		return sol.Peak() - cfg.Ambient
	}
	good := run(0.05)
	poor := run(0.5)
	if poor <= good {
		t.Fatalf("worse sink must run hotter: %v vs %v", poor, good)
	}
	// At steady state, rise scales roughly with total path resistance; the
	// sink term alone bounds the difference from below.
	if poor-good < 10*0.4*0.9 { // ~P * dR with margin
		t.Fatalf("rise delta %v implausibly small", poor-good)
	}
}

func TestPackagePathCarriesHeat(t *testing.T) {
	// Blocking the package path (huge resistance) must heat the bottom die.
	run := func(rPkg float64) float64 {
		cfg := testConfig(12, 12)
		cfg.RPackage = rPkg
		s := NewStack(cfg)
		s.SetDiePower(0, uniformPower(12, 12, 10))
		sol, _ := s.SolveSteady(nil, SolverOpts{})
		return sol.DieTemp(0).Max()
	}
	withPath := run(5)
	blocked := run(5000)
	if blocked <= withPath {
		t.Fatalf("blocking the secondary path must heat die 0: %v vs %v", blocked, withPath)
	}
}

func TestLayerTempOrdering(t *testing.T) {
	// With bottom-die power only, temperatures must not increase toward
	// the sink (heat flows up): sink layer cooler than the active layer.
	s := NewStack(testConfig(12, 12))
	s.SetDiePower(0, uniformPower(12, 12, 10))
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	active := sol.DieTemp(0).Mean()
	sink := sol.LayerTemp(len(s.Layers) - 1).Mean()
	if sink >= active {
		t.Fatalf("sink (%v) must be cooler than the heated active layer (%v)", sink, active)
	}
}

func TestLayerTempPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewStack(testConfig(8, 8))
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	sol.LayerTemp(99)
}

func TestSetTSVGapMapValidation(t *testing.T) {
	s := NewStack(testConfig(8, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad gap")
		}
	}()
	s.SetTSVGapMap(5, geom.NewGrid(8, 8))
}

func TestNumCells(t *testing.T) {
	s := NewStack(testConfig(8, 10))
	if s.NumCells() != 8*10*len(s.Layers) {
		t.Fatalf("cells %d", s.NumCells())
	}
}

func TestFastEstimatorDiesAccessor(t *testing.T) {
	fe := Fast(testConfig(8, 8), 0)
	if fe.Dies() != 2 {
		t.Fatalf("dies %d", fe.Dies())
	}
}
