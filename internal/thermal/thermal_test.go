package thermal

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func testConfig(nx, ny int) Config {
	return DefaultConfig(nx, ny, 4000, 4000, 2) // 4x4 mm, two dies
}

func uniformPower(nx, ny int, total float64) *geom.Grid {
	g := geom.NewGrid(nx, ny)
	g.Fill(total / float64(nx*ny))
	return g
}

func TestSteadyStateConverges(t *testing.T) {
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(0, uniformPower(16, 16, 5))
	s.SetDiePower(1, uniformPower(16, 16, 5))
	_, st := s.SolveSteady(nil, SolverOpts{})
	if !st.Converged {
		t.Fatalf("solver did not converge: %+v", st)
	}
}

func TestEnergyConservation(t *testing.T) {
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(0, uniformPower(16, 16, 3))
	s.SetDiePower(1, uniformPower(16, 16, 7))
	sol, st := s.SolveSteady(nil, SolverOpts{Tol: 1e-7})
	if !st.Converged {
		t.Fatalf("not converged")
	}
	in, out := sol.EnergyBalance()
	if math.Abs(in-10) > 1e-9 {
		t.Fatalf("power in = %v", in)
	}
	if math.Abs(in-out)/in > 0.01 {
		t.Fatalf("energy imbalance: in %v out %v", in, out)
	}
}

func TestTemperatureAboveAmbient(t *testing.T) {
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(0, uniformPower(16, 16, 10))
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	for _, temp := range sol.T {
		if temp < s.Cfg.Ambient-1e-6 {
			t.Fatalf("temperature %v below ambient", temp)
		}
	}
	if sol.Peak() <= s.Cfg.Ambient {
		t.Fatal("peak must exceed ambient with power applied")
	}
}

func TestZeroPowerStaysAmbient(t *testing.T) {
	s := NewStack(testConfig(8, 8))
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	for _, temp := range sol.T {
		if math.Abs(temp-s.Cfg.Ambient) > 1e-6 {
			t.Fatalf("temperature %v should equal ambient", temp)
		}
	}
}

func TestMonotonicInPower(t *testing.T) {
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(1, uniformPower(16, 16, 5))
	solA, _ := s.SolveSteady(nil, SolverOpts{})
	s.SetDiePower(1, uniformPower(16, 16, 10))
	solB, _ := s.SolveSteady(nil, SolverOpts{})
	if solB.Peak() <= solA.Peak() {
		t.Fatalf("doubling power must raise peak: %v vs %v", solA.Peak(), solB.Peak())
	}
}

func TestLinearity(t *testing.T) {
	// Steady state is linear in power: T(2P) - amb = 2 (T(P) - amb).
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(0, uniformPower(16, 16, 4))
	solA, _ := s.SolveSteady(nil, SolverOpts{Tol: 1e-8})
	s.SetDiePower(0, uniformPower(16, 16, 8))
	solB, _ := s.SolveSteady(nil, SolverOpts{Tol: 1e-8})
	amb := s.Cfg.Ambient
	riseA := solA.Peak() - amb
	riseB := solB.Peak() - amb
	if math.Abs(riseB-2*riseA)/riseB > 0.02 {
		t.Fatalf("linearity violated: %v vs 2*%v", riseB, riseA)
	}
}

func TestHotspotDecaysWithDistance(t *testing.T) {
	nx := 32
	s := NewStack(testConfig(nx, nx))
	p := geom.NewGrid(nx, nx)
	p.Set(nx/2, nx/2, 5.0) // 5 W point source on bottom die
	s.SetDiePower(0, p)
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	dt := sol.DieTemp(0)
	center := dt.At(nx/2, nx/2)
	mid := dt.At(nx/2+6, nx/2)
	corner := dt.At(0, 0)
	if !(center > mid && mid > corner) {
		t.Fatalf("no radial decay: center %v mid %v corner %v", center, mid, corner)
	}
}

func TestSymmetry(t *testing.T) {
	nx := 16
	s := NewStack(testConfig(nx, nx))
	s.SetDiePower(0, uniformPower(nx, nx, 8))
	sol, _ := s.SolveSteady(nil, SolverOpts{Tol: 1e-8})
	dt := sol.DieTemp(0)
	for j := 0; j < nx; j++ {
		for i := 0; i < nx/2; i++ {
			a, b := dt.At(i, j), dt.At(nx-1-i, j)
			if math.Abs(a-b) > 1e-3 {
				t.Fatalf("x-symmetry broken at (%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestTopDieRunsCoolerForSamePower(t *testing.T) {
	// The heatsink sits above the top die; the same power injected into the
	// bottom die (far from the sink) must produce a hotter active layer.
	s := NewStack(testConfig(16, 16))
	s.SetDiePower(0, uniformPower(16, 16, 10))
	solBottom, _ := s.SolveSteady(nil, SolverOpts{})
	peakBottom := solBottom.DieTemp(0).Max()

	s2 := NewStack(testConfig(16, 16))
	s2.SetDiePower(1, uniformPower(16, 16, 10))
	solTop, _ := s2.SolveSteady(nil, SolverOpts{})
	peakTop := solTop.DieTemp(1).Max()

	if peakTop >= peakBottom {
		t.Fatalf("top die should run cooler: top %v bottom %v", peakTop, peakBottom)
	}
}

func TestTSVsCoolHotspot(t *testing.T) {
	// TSVs under a bottom-die hotspot act as heat pipes toward the sink and
	// must lower the hotspot peak (the paper's core physical lever).
	nx := 32
	p := geom.NewGrid(nx, nx)
	for j := 14; j < 18; j++ {
		for i := 14; i < 18; i++ {
			p.Set(i, j, 0.5)
		}
	}

	s := NewStack(testConfig(nx, nx))
	s.SetDiePower(0, p)
	solNo, _ := s.SolveSteady(nil, SolverOpts{})
	peakNo := solNo.DieTemp(0).Max()

	tsv := geom.NewGrid(nx, nx)
	for j := 13; j < 19; j++ {
		for i := 13; i < 19; i++ {
			tsv.Set(i, j, 0.5)
		}
	}
	s.SetTSVMap(tsv)
	solTSV, _ := s.SolveSteady(nil, SolverOpts{})
	peakTSV := solTSV.DieTemp(0).Max()

	if peakTSV >= peakNo {
		t.Fatalf("TSVs should cool the hotspot: %v vs %v", peakTSV, peakNo)
	}
}

func TestWarmStartFaster(t *testing.T) {
	s := NewStack(testConfig(24, 24))
	s.SetDiePower(0, uniformPower(24, 24, 6))
	sol, cold := s.SolveSteady(nil, SolverOpts{})
	// Small power change, warm start.
	s.SetDiePower(0, uniformPower(24, 24, 6.3))
	_, warm := s.SolveSteady(sol, SolverOpts{})
	if warm.Sweeps >= cold.Sweeps {
		t.Fatalf("warm start should converge faster: %d vs %d sweeps", warm.Sweeps, cold.Sweeps)
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	s := NewStack(testConfig(12, 12))
	s.SetDiePower(0, uniformPower(12, 12, 5))
	steady, _ := s.SolveSteady(nil, SolverOpts{Tol: 1e-7})
	// March 2000 x 1 ms = 2 s of heating; thermal time constants of this
	// stack are tens of ms, so we should be at steady state.
	traj := s.SolveTransient(nil, 1e-3, 2000, 0, nil, SolverOpts{})
	final := traj[len(traj)-1]
	if math.Abs(final.Peak()-steady.Peak()) > 0.05*(steady.Peak()-s.Cfg.Ambient) {
		t.Fatalf("transient end %v differs from steady %v", final.Peak(), steady.Peak())
	}
}

func TestTransientMonotonicHeating(t *testing.T) {
	s := NewStack(testConfig(12, 12))
	s.SetDiePower(0, uniformPower(12, 12, 5))
	traj := s.SolveTransient(nil, 1e-3, 40, 10, nil, SolverOpts{})
	for i := 1; i < len(traj); i++ {
		if traj[i].Peak() < traj[i-1].Peak()-1e-9 {
			t.Fatalf("heating must be monotonic: step %d %v < %v", i, traj[i].Peak(), traj[i-1].Peak())
		}
	}
}

// TestTransientLowPassesActivity asserts Figure 1's time-scale ordering at
// an 8x8 grid: the thermal step response's tau63 is at least 100x the
// 0.2 ms period of an activity toggle, and the toggle's temperature ripple
// is at most 5% of the steady rise. Measured at this grid: tau63 = 41 ms
// and a ripple of 1.74%; examples/timescales prints 41 ms and 1.8% at
// grid 16.
func TestTransientLowPassesActivity(t *testing.T) {
	const period = 2e-4 // power toggles 0/2x every 100 us
	s := NewStack(testConfig(8, 8))
	s.SetDiePower(0, uniformPower(8, 8, 10))
	steady, _ := s.SolveSteady(nil, SolverOpts{})
	rise := steady.Peak() - s.Cfg.Ambient

	warmup := s.SolveTransient(nil, 1e-3, 400, 1, nil, SolverOpts{})
	tau := math.Inf(1)
	for k, sol := range warmup {
		if sol.Peak()-s.Cfg.Ambient >= 0.63*rise {
			tau = float64(k+1) * 1e-3
			break
		}
	}
	if tau < 100*period {
		t.Errorf("tau63 %.1f ms is not 100x the %.1f ms toggle period", tau*1e3, period*1e3)
	}

	traj := s.SolveTransient(warmup[len(warmup)-1], 1e-4, 200, 1, func(step int) float64 {
		if step%2 == 0 {
			return 2
		}
		return 0
	}, SolverOpts{})
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, sol := range traj[20:] {
		lo = math.Min(lo, sol.Peak())
		hi = math.Max(hi, sol.Peak())
	}
	if ripple := hi - lo; ripple > 0.05*rise {
		t.Errorf("thermal ripple %.3f K exceeds 5%% of the %.2f K steady rise", ripple, rise)
	}
}

func TestDieTempDims(t *testing.T) {
	s := NewStack(testConfig(8, 10))
	s.SetDiePower(0, geom.NewGrid(8, 10))
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	dt := sol.DieTemp(1)
	if dt.NX != 8 || dt.NY != 10 {
		t.Fatalf("dims %dx%d", dt.NX, dt.NY)
	}
}

func TestPowerMapDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewStack(testConfig(8, 8))
	s.SetDiePower(0, geom.NewGrid(4, 4))
}

func TestLayerStackStructure(t *testing.T) {
	ls := buildLayers(2)
	names := map[string]bool{}
	tsvLayers := 0
	active := 0
	for _, l := range ls {
		names[l.Name] = true
		if l.TSVMixed {
			tsvLayers++
		}
		if l.PowerDie >= 0 {
			active++
		}
	}
	if !names["package"] || !names["sink"] || !names["tim"] {
		t.Fatal("missing boundary layers")
	}
	if tsvLayers != 2 {
		t.Fatalf("two-die stack needs the lower BEOL and the bond layer TSV-mixed, got %d", tsvLayers)
	}
	if active != 2 {
		t.Fatalf("need 2 active layers, got %d", active)
	}
}

func TestFastEstimatorTracksDetailed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nx := 32
	cfg := testConfig(nx, nx)
	fe := Fast(cfg, 0)

	// A two-blob power pattern.
	p0 := geom.NewGrid(nx, nx)
	for j := 4; j < 10; j++ {
		for i := 4; i < 10; i++ {
			p0.Set(i, j, 0.2)
		}
	}
	for j := 20; j < 28; j++ {
		for i := 20; i < 28; i++ {
			p0.Set(i, j, 0.05)
		}
	}
	p1 := geom.NewGrid(nx, nx)

	s := NewStack(cfg)
	s.SetDiePower(0, p0)
	s.SetDiePower(1, p1)
	sol, _ := s.SolveSteady(nil, SolverOpts{})
	detailed := sol.DieTemp(0)

	est := fe.Estimate([]*geom.Grid{p0, p1})[0]

	// The estimator must reproduce the spatial pattern: Pearson correlation
	// of the two maps should be strongly positive.
	r := pearson(detailed.Data, est.Data)
	if r < 0.85 {
		t.Fatalf("fast estimator poorly correlated with detailed solver: r=%v", r)
	}
	// And the hot blob must be hotter than the cool blob in both.
	if est.At(7, 7) <= est.At(24, 24) {
		t.Fatal("fast estimator lost the power ordering")
	}
}

// gaussianBlur blurs g with a freshly computed sigma kernel through the
// estimator's blur, allocating the output and scratch grids.
func gaussianBlur(g *geom.Grid, sigma float64, workers int) *geom.Grid {
	out := geom.NewGrid(g.NX, g.NY)
	blurInto(out, g, geom.NewGrid(g.NX, g.NY), gaussianKernel(sigma), workers)
	return out
}

func TestGaussianBlurPreservesMass(t *testing.T) {
	g := geom.NewGrid(16, 16)
	g.Set(8, 8, 3)
	b := gaussianBlur(g, 2.0, 1)
	if math.Abs(b.Sum()-3) > 1e-9 {
		t.Fatalf("blur changed total mass: %v", b.Sum())
	}
}

func TestGaussianBlurZeroSigmaIdentity(t *testing.T) {
	g := geom.NewGrid(4, 4)
	g.Set(1, 2, 5)
	b := gaussianBlur(g, 0, 1)
	for i := range g.Data {
		if g.Data[i] != b.Data[i] {
			t.Fatal("sigma=0 must be identity")
		}
	}
}

func TestReflectIndex(t *testing.T) {
	cases := []struct{ in, n, want int }{
		{-1, 8, 0}, {-2, 8, 1}, {8, 8, 7}, {9, 8, 6}, {3, 8, 3},
	}
	for _, c := range cases {
		if got := reflect(c.in, c.n); got != c.want {
			t.Errorf("reflect(%d,%d) = %d want %d", c.in, c.n, got, c.want)
		}
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func TestMonolithicStackStructure(t *testing.T) {
	cfg := MonolithicConfig(8, 8, 4000, 4000, 3)
	s := NewStack(cfg)
	active, ilds := 0, 0
	for _, l := range s.Layers {
		if l.PowerDie >= 0 {
			active++
		}
		if l.TSVMixed {
			ilds++
		}
	}
	if active != 3 {
		t.Fatalf("active tiers %d, want 3", active)
	}
	if ilds != 2 {
		t.Fatalf("ILD/MIV layers %d, want 2", ilds)
	}
	if s.Gaps() != 2 {
		t.Fatalf("gaps %d", s.Gaps())
	}
}

// TestMonolithicCouplesTiersMoreStrongly: the paper's footnote — monolithic
// integration's thin ILD couples tiers far more than a TSV-based bond, so
// heat injected in one tier raises the other tier's temperature much closer
// to its own.
func TestMonolithicCouplesTiersMoreStrongly(t *testing.T) {
	const n = 16
	coupling := func(cfg Config) float64 {
		s := NewStack(cfg)
		p := geom.NewGrid(n, n)
		p.Set(n/2, n/2, 3)
		s.SetDiePower(0, p)
		sol, _ := s.SolveSteady(nil, SolverOpts{})
		amb := cfg.Ambient
		rise0 := sol.DieTemp(0).Max() - amb
		rise1 := sol.DieTemp(1).Max() - amb
		return rise1 / rise0
	}
	tsvBased := coupling(DefaultConfig(n, n, 4000, 4000, 2))
	mono := coupling(MonolithicConfig(n, n, 4000, 4000, 2))
	if mono <= tsvBased {
		t.Fatalf("monolithic coupling %v should exceed TSV-based %v", mono, tsvBased)
	}
	if mono < 0.9 {
		t.Fatalf("monolithic tiers should be nearly isothermal: coupling %v", mono)
	}
}

func TestMonolithicSolves(t *testing.T) {
	cfg := MonolithicConfig(12, 12, 4000, 4000, 2)
	s := NewStack(cfg)
	p := geom.NewGrid(12, 12)
	p.Fill(5.0 / 144)
	s.SetDiePower(0, p)
	s.SetDiePower(1, p)
	sol, st := s.SolveSteady(nil, SolverOpts{Tol: 1e-6})
	if !st.Converged {
		t.Fatal("did not converge")
	}
	in, out := sol.EnergyBalance()
	if math.Abs(in-out)/in > 0.01 {
		t.Fatalf("energy imbalance %v vs %v", in, out)
	}
}
