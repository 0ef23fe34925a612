package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/volt"
)

// TestIncrementalVoltageCrossCheckOverJournaledRun is the acceptance
// contract for the incremental voltage refresh: a journaled 1k-move
// perturb/cost/undo run with the cross-check enabled must see every stride
// refresh produce identical volumes and TotalPower within 1e-9 of a
// from-scratch volt.Assign (crossCheckVolt panics otherwise), and the
// incremental cost must stay within the 1e-9 epsilon contract throughout.
// Interleaved undos include rejected moves whose evaluation refreshed the
// assignment, so the next refresh must resynchronize the assigner with the
// restored layout.
func TestIncrementalVoltageCrossCheckOverJournaledRun(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 41)
	ev.check = true
	rng := rand.New(rand.NewSource(9))
	dec := rand.New(rand.NewSource(10))
	ev.Cost()
	for i := 0; i < 1000; i++ {
		undo := ev.Perturb(rng)
		ev.Cost()
		if dec.Float64() < 0.5 {
			undo()
		}
	}
	st := ev.stats
	if st.VoltCrossChecks == 0 {
		t.Fatalf("voltage cross-checks never ran: %+v", st)
	}
	if st.VoltIncrementalRefreshes == 0 || st.VoltIncrementalRefreshes != st.VoltRefreshes {
		t.Fatalf("refreshes not served incrementally: %+v", st)
	}
	if st.VoltCandidatesReused == 0 {
		t.Fatalf("no candidate tree was ever reused: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}

// TestCrossCheckVoltCatchesDivergence pins the voltage oracle itself: an
// assignment that differs from a fresh volt.Assign in one module's level
// must make crossCheckVolt panic, so the journaled cross-check runs cannot
// pass vacuously. The assigner takes no account of moves from the caller,
// so this check is what stands behind its self-synchronization.
func TestCrossCheckVoltCatchesDivergence(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 41)
	ev.check = true
	ev.Cost()
	ic := ev.incr
	ref := ic.refSTA(ev)
	bad := volt.Assign(ic.lay, ref, ev.voltConfig())
	for _, lv := range volt.Levels90nm() {
		if lv != bad.LevelOf[0] {
			bad.LevelOf[0] = lv
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("crossCheckVolt accepted an assignment with a wrong module level")
		}
	}()
	ev.crossCheckVolt(ic.lay, ref, bad)
}

// TestIncrementalVoltageUnderParallelism runs the refresh alongside the
// parallel thermal workers; under `go test -race` (the CI job) it asserts
// the voltage caches never share state with the estimator's fan-out.
func TestIncrementalVoltageUnderParallelism(t *testing.T) {
	des := bench.MustGenerate("n100")
	post := false
	res, err := Run(des, Config{
		Mode:         TSCAware,
		GridN:        16,
		SAIterations: 200,
		Seed:         7,
		PostProcess:  &post,
		Parallelism:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvalStats.VoltIncrementalRefreshes == 0 {
		t.Fatalf("incremental voltage inactive: %+v", res.EvalStats)
	}
}
