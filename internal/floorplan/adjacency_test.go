package floorplan

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
)

// bruteAdjacent is the reference all-pairs implementation the swept
// AdjacentModulesInto must reproduce exactly, including neighbour order.
func bruteAdjacent(l *Layout) [][]int {
	n := len(l.Rects)
	adj := make([][]int, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			da, db := l.DieOf[a], l.DieOf[b]
			var linked bool
			switch {
			case da == db:
				linked = l.Rects[a].Adjacent(l.Rects[b])
			case da == db+1 || db == da+1:
				linked = l.Rects[a].OverlapArea(l.Rects[b]) > 0
			}
			if linked {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	return adj
}

func TestAdjacentModulesMatchesBruteForce(t *testing.T) {
	des := bench.MustGenerate("n100")
	// One scratch across seeds: a reused scratch must never leak the
	// previous layout's rows or order into the next sweep.
	s := &AdjacencyScratch{}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fp := NewRandom(des, rng)
		// A few perturbations so packed and overhanging shapes both occur.
		for i := 0; i < 25; i++ {
			fp.Perturb(rng)
		}
		l := fp.Pack()
		got := l.AdjacentModulesInto(s)
		want := bruteAdjacent(l)
		for m := range want {
			if len(got[m]) != len(want[m]) {
				t.Fatalf("seed %d module %d: adjacency %v != brute force %v", seed, m, got[m], want[m])
			}
			for k := range want[m] {
				if got[m][k] != want[m][k] {
					t.Fatalf("seed %d module %d: order differs: %v vs %v", seed, m, got[m], want[m])
				}
			}
		}
	}
}
