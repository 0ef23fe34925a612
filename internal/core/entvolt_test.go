package core

import (
	"math/rand"
	"testing"
)

// TestIncrementalEntropyVoltageCrossCheckOverJournaledRun is the acceptance
// contract for the entropy cache under rejections and voltage refreshes: a
// journaled 1k-move perturb/cost/undo run with the cross-check enabled must
// see every patched per-die entropy within 1e-9 of a from-scratch
// SpatialEntropy (the evaluator panics otherwise), while the incremental
// cost stays within its own 1e-9 contract. Interleaved undos exercise the
// refresh-during-rejected-move path, where the self-synchronizing entropy
// cache re-converges against restored map bytes under new voltage scales.
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
	if st.EntropyCrossChecks == 0 || st.VoltRefreshes < 2 {
		t.Fatalf("entropy cross-checks or voltage refreshes never ran: %+v", st)
	}
	if st.EntropyPatched == 0 {
		t.Fatalf("entropy cache never served a patch: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}
