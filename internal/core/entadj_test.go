package core

import (
	"math/rand"
	"testing"
)

// TestIncrementalEntropyAdjacencyCrossCheckOverJournaledRun is the
// acceptance contract for the entropy cache and the adjacency index: a
// journaled 1k-move perturb/cost/undo run with the cross-check enabled must
// see every patched per-die entropy within 1e-9 of a from-scratch
// SpatialEntropy and every adjacency-index row set exactly equal to a fresh
// sweep (the evaluator panics otherwise), while the incremental cost stays
// within its own 1e-9 contract. Interleaved undos exercise the
// refresh-during-rejected-move path for both caches — the entropy cache
// re-converging against restored map bytes, the index against the
// re-derived volt dirty set.
func TestIncrementalEntropyAdjacencyCrossCheckOverJournaledRun(t *testing.T) {
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
	if st.EntropyCrossChecks == 0 || st.AdjCrossChecks == 0 {
		t.Fatalf("cache cross-checks never ran: %+v", st)
	}
	if st.EntropyPatched == 0 {
		t.Fatalf("entropy cache never served a patch: %+v", st)
	}
	// AdjRowsChanged is only counted by the index paths (probe or bulk);
	// at this design size the bulk path dominates, so AdjIncrementalUpdates
	// alone may legitimately stay 0.
	if st.AdjRowsChanged == 0 {
		t.Fatalf("adjacency index never served a refresh: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}
