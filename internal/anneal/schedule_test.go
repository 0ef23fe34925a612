package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// ramp is a problem whose every move goes uphill by exactly 1; it counts
// its Cost calls.
type ramp struct{ level, costs int }

func (r *ramp) Cost() float64 {
	r.costs++
	return float64(r.level)
}

func (r *ramp) Perturb(*rand.Rand) func() {
	r.level++
	return func() { r.level-- }
}

// TestOptionsDefaults pins the fixed schedule: chains of Iterations/50
// moves, a 50-move calibration walk, a start temperature at which the
// walk's mean uphill step is accepted with probability 0.8, and geometric
// cooling to 1e-4 of the start temperature over the whole budget.
func TestOptionsDefaults(t *testing.T) {
	s := newSchedule(nil, 5000)
	if s.chainLength != 100 {
		t.Fatalf("chain length %d, want 100", s.chainLength)
	}
	if math.Abs(math.Pow(s.alpha, 50)-1e-4) > 1e-9 {
		t.Fatalf("alpha %v does not hit the target decay", s.alpha)
	}

	p := &ramp{}
	res := runSerial(p, rand.New(rand.NewSource(1)), nil, ParallelOptions{Iterations: 5000})
	if p.costs != 1+50+5000 {
		t.Fatalf("%d Cost calls, want 1 start + 50 calibration + 5000 moves", p.costs)
	}
	if want := -1 / math.Log(0.8); math.Abs(res.StartTemp-want) > 1e-12*want {
		t.Fatalf("start temperature %v, want %v", res.StartTemp, want)
	}
	if ratio := res.FinalTemp / res.StartTemp; math.Abs(ratio-1e-4) > 1e-12 {
		t.Fatalf("final/start temperature %v, want 1e-4", ratio)
	}
}

// TestOptionsChainLengthFloor: a budget under 50 moves still cools, one
// move per chain, and reaches the same final temperature ratio.
func TestOptionsChainLengthFloor(t *testing.T) {
	if s := newSchedule(nil, 10); s.chainLength != 1 {
		t.Fatalf("chain length %d, want the floor 1", s.chainLength)
	}
	strides := 0
	res := runSerial(&ramp{}, rand.New(rand.NewSource(2)), nil, ParallelOptions{
		Iterations: 10,
		OnStride:   func(done, total int, best float64) { strides++ },
	})
	if strides != 10 {
		t.Fatalf("%d swap barriers over 10 one-move chains", strides)
	}
	if ratio := res.FinalTemp / res.StartTemp; math.Abs(ratio-1e-4) > 1e-12 {
		t.Fatalf("final/start temperature %v, want 1e-4", ratio)
	}
}

// TestZeroBudgetOnlyCalibrates: with no move budget the replica calibrates,
// reports its start state as the best, and proposes nothing.
func TestZeroBudgetOnlyCalibrates(t *testing.T) {
	p := &ramp{}
	strides := 0
	res := runSerial(p, rand.New(rand.NewSource(3)), nil, ParallelOptions{
		OnStride: func(done, total int, best float64) { strides++ },
	})
	if res.Iterations != 0 || strides != 0 || p.costs != 1+50 {
		t.Fatalf("zero budget ran %d moves, %d strides, %d Cost calls", res.Iterations, strides, p.costs)
	}
	if res.BestCost != 0 || res.StartTemp <= 0 {
		t.Fatalf("zero budget result %+v", res)
	}
}

// TestBestSnapshotUsable: OnBest must fire at the moment the state holds
// the best cost, so a clone taken there reproduces BestCost.
func TestBestSnapshotUsable(t *testing.T) {
	q := &quadratic{x: make([]float64, 6), target: 1, step: 0.5}
	var bestX []float64
	res := runSerial(q, rand.New(rand.NewSource(13)), func(c float64) {
		bestX = append(bestX[:0], q.x...)
	}, ParallelOptions{Iterations: 8000})
	snap := &quadratic{x: bestX, target: 1, step: 0.5}
	if math.Abs(snap.Cost()-res.BestCost) > 1e-12 {
		t.Fatalf("snapshot cost %v != best %v", snap.Cost(), res.BestCost)
	}
}
