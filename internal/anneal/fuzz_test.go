package anneal

import (
	"math/rand"
	"testing"
)

// FuzzAnnealReplicaSwap drives RunParallel through randomized budgets and
// replica/speculation shapes on the incremental toy problem — including
// the serial chain (one replica, one copy) and speculation alone (one
// replica, several copies) — and checks the
// per-replica journal invariants at every swap barrier: each copy's
// incrementally patched cost must match a from-scratch recompute within
// 1e-9 relative, and all speculative copies of a replica must stay
// byte-identical in state, cached cost, and evaluation count.
func FuzzAnnealReplicaSwap(f *testing.F) {
	f.Add(int64(1), int64(2), int64(1), int64(400))
	f.Add(int64(7), int64(4), int64(3), int64(900))
	f.Add(int64(42), int64(3), int64(2), int64(777))
	f.Add(int64(5), int64(0), int64(0), int64(157)) // serial chain
	f.Add(int64(9), int64(0), int64(2), int64(401)) // speculation only

	f.Fuzz(func(t *testing.T, seed, k, m, iters int64) {
		K := int(mod(k, 5)) + 1 // 1..5 replicas
		M := int(mod(m, 3)) + 1 // 1..3 speculative copies
		budget := int(mod(iters, 1500)) + 50

		reps := make([]Replica, K)
		sums := make([][]*incrSum, K)
		root := rand.New(rand.NewSource(seed))
		for r := range reps {
			rng := rand.New(rand.NewSource(root.Int63()))
			reps[r], sums[r] = specReplica(9, M, rng)
		}

		check := func(when string) {
			for r := range sums {
				primary := sums[r][0]
				primary.checkInvariant(t, when)
				for c := 1; c < len(sums[r]); c++ {
					cp := sums[r][c]
					cp.checkInvariant(t, when)
					for i := range cp.x {
						if cp.x[i] != primary.x[i] {
							t.Fatalf("%s: replica %d copy %d state diverged at %d", when, r, c, i)
						}
					}
					if cp.cached != primary.cached || cp.evals != primary.evals {
						t.Fatalf("%s: replica %d copy %d out of lockstep (cached %v/%v, evals %d/%d)",
							when, r, c, cp.cached, primary.cached, cp.evals, primary.evals)
					}
					// Diff-bookkeeping lockstep: outside either copy's
					// pending set the mirrors must agree byte-exactly.
					// A committed-winner replay legitimately leaves the
					// replayed index pending on loser copies (mirror
					// sync deferred to the next Cost), so those indices
					// are exempt; everything else diverging means a
					// freeze/rollback path smeared the bookkeeping.
					pend := make(map[int]bool, len(cp.pending)+len(primary.pending))
					for _, i := range cp.pending {
						pend[i] = true
					}
					for _, i := range primary.pending {
						pend[i] = true
					}
					for i := range cp.mirror {
						if !pend[i] && cp.mirror[i] != primary.mirror[i] {
							t.Fatalf("%s: replica %d copy %d mirror diverged at %d (%v vs %v)",
								when, r, c, i, cp.mirror[i], primary.mirror[i])
						}
					}
				}
			}
		}

		res := RunParallel(reps, ParallelOptions{
			Iterations: budget,
			SwapSeed:   seed ^ 0x5DEECE66D,
			OnStride:   func(done, total int, best float64) { check("post-swap barrier") },
		})
		check("final")

		total := 0
		for r := range res.Replicas {
			if got := res.Replicas[r].Iterations; got > budget {
				t.Fatalf("replica %d overran its budget: %d > %d", r, got, budget)
			}
			total += res.Replicas[r].Iterations
		}
		if total != K*budget {
			t.Fatalf("fleet consumed %d moves, want %d", total, K*budget)
		}
		if res.SwapAccepts > res.SwapAttempts {
			t.Fatalf("swap accepts %d exceed attempts %d", res.SwapAccepts, res.SwapAttempts)
		}
		if res.Best < 0 || res.Best >= K {
			t.Fatalf("best index %d out of range", res.Best)
		}
		for r := range res.Replicas {
			if res.Replicas[r].BestCost < res.BestCost {
				t.Fatalf("replica %d best %v beats the reported fleet best %v",
					r, res.Replicas[r].BestCost, res.BestCost)
			}
		}
	})
}

// mod is a non-negative modulus for fuzz-provided int64s.
func mod(v, n int64) int64 {
	r := v % n
	if r < 0 {
		r += n
	}
	return r
}
