package thermal

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randomPower(nx, ny int, total float64, rng *rand.Rand) *geom.Grid {
	g := geom.NewGrid(nx, ny)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	g.ScaleBy(total / g.Sum())
	return g
}

// TestParallelSteadySolveMatchesSerial pins the determinism contract: the
// red-black solver must produce byte-identical fields for every worker
// count, because each half-sweep's updates only read the opposite color.
func TestParallelSteadySolveMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 48x48 to clear the serial-fallback size gate in solveWorkers.
	cfg := DefaultConfig(48, 48, 4000, 4000, 2)
	solve := func(workers int) []float64 {
		s := NewStack(cfg)
		s.SetDiePower(0, randomPower(48, 48, 8, rand.New(rand.NewSource(1))))
		s.SetDiePower(1, randomPower(48, 48, 5, rand.New(rand.NewSource(2))))
		sol, st := s.SolveSteady(nil, SolverOpts{Tol: 1e-6, Workers: workers})
		if !st.Converged {
			t.Fatalf("workers=%d did not converge: %+v", workers, st)
		}
		return sol.T
	}
	serial := solve(1)
	for _, w := range []int{2, 3, 8, 0} {
		got := solve(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d differs from serial at cell %d: %v vs %v",
					w, i, got[i], serial[i])
			}
		}
	}
	_ = rng
}

func TestParallelTransientMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(48, 48, 4000, 4000, 2)
	run := func(workers int) []float64 {
		s := NewStack(cfg)
		s.SetDiePower(0, randomPower(48, 48, 10, rand.New(rand.NewSource(3))))
		traj := s.SolveTransient(nil, 1e-3, 5, 0, nil,
			SolverOpts{Tol: 1e-5, MaxSweeps: 4000, Workers: workers})
		return traj[len(traj)-1].T
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("transient parallel differs at cell %d: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestParallelBlurMatchesSerial(t *testing.T) {
	g := randomPower(64, 64, 20, rand.New(rand.NewSource(4)))
	serial := gaussianBlur(g, 5.0, 1)
	for _, w := range []int{2, 4, 0} {
		got := gaussianBlur(g, 5.0, w)
		for i := range serial.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d blur differs at %d", w, i)
			}
		}
	}
}

// TestFastEstimatorWorkersInvariant pins what lets one table entry serve
// every worker count: a calibration and its blurs at 4 workers reproduce
// the serial ones byte for byte. It calibrates afresh at each count, since
// the table would hand both estimators one calibration.
func TestFastEstimatorWorkersInvariant(t *testing.T) {
	cfg := DefaultConfig(32, 32, 4000, 4000, 2)
	power := []*geom.Grid{
		randomPower(32, 32, 6, rand.New(rand.NewSource(5))),
		randomPower(32, 32, 4, rand.New(rand.NewSource(6))),
	}
	base := freshFast(cfg, 1).Estimate(power)
	got := freshFast(cfg, 4).Estimate(power)
	for d := range base {
		for i := range base[d].Data {
			if base[d].Data[i] != got[d].Data[i] {
				t.Fatalf("die %d cell %d differs under workers=4", d, i)
			}
		}
	}
}

// TestCombineMatchesEstimate pins the cache contract used by the incremental
// cost evaluator: summing per-source ResponseInto grids with CombineInto,
// into output grids that last held another estimate, must reproduce
// Estimate byte for byte.
func TestCombineMatchesEstimate(t *testing.T) {
	cfg := DefaultConfig(24, 24, 4000, 4000, 2)
	fe := Fast(cfg, 0)
	power := []*geom.Grid{
		randomPower(24, 24, 6, rand.New(rand.NewSource(8))),
		randomPower(24, 24, 4, rand.New(rand.NewSource(9))),
	}
	want := fe.Estimate(power)
	resp := make([][]*geom.Grid, fe.Dies())
	for s := 0; s < fe.Dies(); s++ {
		resp[s] = fe.ResponseInto(power[s], s, nil, nil)
	}
	stale := fe.Estimate([]*geom.Grid{power[1], power[0]})
	got := fe.CombineInto(resp, stale)
	for d := range want {
		for i := range want[d].Data {
			if want[d].Data[i] != got[d].Data[i] {
				t.Fatalf("die %d cell %d: CombineInto(ResponseInto) != Estimate", d, i)
			}
		}
	}
}

// TestResponseIntoReusesStorage pins the blur's allocation diet: a
// ResponseInto over storage that last held another source's response
// allocates nothing on the serial blur and reproduces a fresh response
// byte for byte, while a 4-worker estimator of the same stack shares its
// calibration.
func TestResponseIntoReusesStorage(t *testing.T) {
	cfg := DefaultConfig(32, 32, 4000, 4000, 2)
	fe := Fast(cfg, 1)
	wide := Fast(cfg, 4)
	power := []*geom.Grid{
		randomPower(32, 32, 6, rand.New(rand.NewSource(10))),
		randomPower(32, 32, 4, rand.New(rand.NewSource(11))),
	}
	scratch := geom.NewGrid(32, 32)
	out := fe.ResponseInto(power[1], 1, nil, scratch)
	out = fe.ResponseInto(power[0], 0, out, scratch)
	want := fe.ResponseInto(power[0], 0, nil, nil)
	for tgt := range want {
		for i := range want[tgt].Data {
			if out[tgt].Data[i] != want[tgt].Data[i] {
				t.Fatalf("target %d cell %d: reused response %v != fresh %v", tgt, i, out[tgt].Data[i], want[tgt].Data[i])
			}
		}
	}
	if n := testing.AllocsPerRun(50, func() { out = fe.ResponseInto(power[0], 0, out, scratch) }); n != 0 {
		t.Fatalf("warmed ResponseInto allocates %v times per call, want 0", n)
	}
	if wide.workers != 4 || &wide.kernel[0][0][0] != &fe.kernel[0][0][0] {
		t.Fatalf("the 4-worker estimator (workers %d) does not share the serial one's calibration", wide.workers)
	}
	wideOut := wide.ResponseInto(power[0], 0, nil, nil)
	for tgt := range want {
		for i := range want[tgt].Data {
			if wideOut[tgt].Data[i] != want[tgt].Data[i] {
				t.Fatalf("target %d cell %d: 4-worker response %v != serial %v", tgt, i, wideOut[tgt].Data[i], want[tgt].Data[i])
			}
		}
	}
}
