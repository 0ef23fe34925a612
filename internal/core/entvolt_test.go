package core

import (
	"math/rand"
	"testing"
)

// TestIncrementalEntropyVoltageCrossCheckOverJournaledRun is the acceptance
// contract for the entropy cache and the voltage assigner under rejections:
// a journaled 1k-move perturb/cost/undo run with the cross-check enabled
// must see every patched per-die entropy within 1e-9 of a from-scratch
// SpatialEntropy and every voltage refresh equivalent to a fresh
// volt.Assign (the evaluator panics otherwise), while the incremental cost
// stays within its own 1e-9 contract. Interleaved undos exercise the
// refresh-during-rejected-move path for both self-synchronizing caches —
// the entropy cache re-converging against restored map bytes, the assigner
// against the restored layout's adjacency sweep.
func TestIncrementalEntropyVoltageCrossCheckOverJournaledRun(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 51)
	ev.check = true
	rng := rand.New(rand.NewSource(13))
	dec := rand.New(rand.NewSource(14))
	ev.Cost()
	for i := 0; i < 1000; i++ {
		undo := ev.Perturb(rng)
		ev.Cost()
		if dec.Float64() < 0.5 {
			undo()
		}
	}
	st := ev.stats
	if st.EntropyCrossChecks == 0 || st.VoltCrossChecks == 0 {
		t.Fatalf("cache cross-checks never ran: %+v", st)
	}
	if st.EntropyPatched == 0 {
		t.Fatalf("entropy cache never served a patch: %+v", st)
	}
	if st.VoltCandidatesReused == 0 {
		t.Fatalf("voltage assigner never reused a candidate tree: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}
