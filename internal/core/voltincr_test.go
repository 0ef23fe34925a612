package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
)

// TestIncrementalVoltageCrossCheckOverJournaledRun pins the voltage refresh
// inside the incremental evaluator: over a journaled 1k-move
// perturb/cost/undo run with the cross-check enabled, the incremental cost
// — whose power, delay and thermal terms all follow the refreshed voltage
// scales — must stay within the 1e-9 epsilon contract of the full
// recompute. Interleaved undos include rejected moves whose evaluation
// refreshed the assignment, whose scales survive the rollback. Every
// refresh grows every module's candidate tree and sweeps the adjacency
// once, which the counters the end-to-end benchmark reads must show.
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
	if st.VoltRefreshes < 2 || st.CrossChecks == 0 {
		t.Fatalf("voltage refreshes or cost cross-checks never ran: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
	n := len(ev.fp.Design.Modules)
	if st.VoltCandidatesRegrown != n*st.VoltRefreshes || st.VoltCandidatesReused != 0 ||
		st.AdjBulkFallbacks != st.VoltRefreshes || st.AdjIncrementalUpdates != 0 {
		t.Fatalf("refresh counters do not show %d trees and one sweep per refresh: %+v", n, st)
	}
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
	if res.EvalStats.VoltRefreshes == 0 || res.EvalStats.IncrementalEvals == 0 {
		t.Fatalf("incremental voltage refresh inactive: %+v", res.EvalStats)
	}
}
