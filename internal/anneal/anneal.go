// Package anneal provides the simulated-annealing search engine driving the
// floorplanner, mirroring Corblivar's adaptive SA: the start temperature is
// calibrated from the cost deltas of a random walk, cooling is geometric
// with fixed-length chains per temperature, and the best-seen solution is
// snapshotted through a caller-provided hook (the engine itself is agnostic
// of the state representation).
//
// RunParallel is the one annealing loop. One replica with one problem copy
// is the paper's serial chain; more replicas form a parallel-tempering
// ladder, and more copies per replica evaluate speculative candidate moves
// concurrently.
package anneal

import (
	"context"
	"math"
	"math/rand"
)

// Problem is the state the annealer optimizes. Cost must reflect the current
// state; Perturb must mutate the state and return an undo closure that
// restores it exactly.
type Problem interface {
	Cost() float64
	Perturb(rng *rand.Rand) (undo func())
}

// The fixed schedule (see ParallelOptions); only the move budget varies.
const (
	initAcceptProb   = 0.8
	calibrationMoves = 50
	chainsPerBudget  = 50
	finalTempRatio   = 1e-4
)

// schedule is the cooling schedule of one move budget, plus the context
// polled between moves.
type schedule struct {
	ctx         context.Context
	iterations  int
	chainLength int     // moves per temperature step, at least 1
	alpha       float64 // geometric cooling factor per chain
}

func newSchedule(ctx context.Context, iterations int) schedule {
	s := schedule{ctx: ctx, iterations: iterations, chainLength: max(iterations/chainsPerBudget, 1)}
	chains := math.Max(float64(iterations)/float64(s.chainLength), 1)
	s.alpha = math.Pow(finalTempRatio, 1/chains)
	return s
}

// cancelled reports whether the context is done.
func (s *schedule) cancelled() bool { return s.ctx != nil && s.ctx.Err() != nil }

// Result reports one replica's search outcome.
type Result struct {
	Iterations int
	Accepted   int
	Uphill     int
	BestCost   float64
	FinalCost  float64
	StartTemp  float64
	FinalTemp  float64
	// Cancelled reports that the replica stopped because
	// ParallelOptions.Ctx was done before the budget ran out.
	Cancelled bool
}

func mustPerturb(p Problem, rng *rand.Rand) func() {
	undo := p.Perturb(rng)
	if undo == nil {
		panic("anneal: Perturb returned nil undo")
	}
	return undo
}
