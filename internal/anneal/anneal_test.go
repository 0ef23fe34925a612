package anneal

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// quadratic is a toy problem: minimize sum (x_i - target)^2 with +-step moves.
type quadratic struct {
	x      []float64
	target float64
	step   float64
}

func (q *quadratic) Cost() float64 {
	c := 0.0
	for _, v := range q.x {
		d := v - q.target
		c += d * d
	}
	return c
}

func (q *quadratic) Perturb(rng *rand.Rand) func() {
	i := rng.Intn(len(q.x))
	old := q.x[i]
	q.x[i] += (rng.Float64()*2 - 1) * q.step
	return func() { q.x[i] = old }
}

// runSerial anneals p as one replica with one problem copy — the serial
// chain — and returns that replica's result. onBest may be nil.
func runSerial(p Problem, rng *rand.Rand, onBest func(float64), opts ParallelOptions) Result {
	return RunParallel([]Replica{{Problems: []Problem{p}, RNG: rng, OnBest: onBest}}, opts).Replicas[0]
}

func TestAnnealFindsMinimum(t *testing.T) {
	q := &quadratic{x: make([]float64, 8), target: 3, step: 0.5}
	rng := rand.New(rand.NewSource(1))
	res := runSerial(q, rng, nil, ParallelOptions{Iterations: 20000})
	if res.BestCost > 0.5 {
		t.Fatalf("best cost %v; annealer failed to approach minimum", res.BestCost)
	}
	if res.FinalCost < res.BestCost {
		t.Fatal("final cost cannot beat best cost")
	}
}

func TestOnBestMonotonic(t *testing.T) {
	q := &quadratic{x: make([]float64, 4), target: 2, step: 0.5}
	rng := rand.New(rand.NewSource(2))
	last := math.Inf(1)
	runSerial(q, rng, func(c float64) {
		if c > last {
			t.Fatalf("OnBest called with worse cost: %v after %v", c, last)
		}
		last = c
	}, ParallelOptions{Iterations: 5000})
	if math.IsInf(last, 1) {
		t.Fatal("OnBest never called")
	}
}

func TestAcceptsCountedAndBounded(t *testing.T) {
	q := &quadratic{x: make([]float64, 4), target: 1, step: 0.3}
	rng := rand.New(rand.NewSource(3))
	res := runSerial(q, rng, nil, ParallelOptions{Iterations: 1000})
	if res.Iterations != 1000 {
		t.Fatalf("iterations %d", res.Iterations)
	}
	if res.Accepted < 1 || res.Accepted > 1000 {
		t.Fatalf("accepted %d out of range", res.Accepted)
	}
	if res.Uphill > res.Accepted {
		t.Fatal("uphill accepts exceed total accepts")
	}
}

func TestTemperatureCools(t *testing.T) {
	q := &quadratic{x: make([]float64, 4), target: 1, step: 0.3}
	rng := rand.New(rand.NewSource(4))
	res := runSerial(q, rng, nil, ParallelOptions{Iterations: 2000})
	if res.FinalTemp >= res.StartTemp {
		t.Fatalf("temperature must cool: %v -> %v", res.StartTemp, res.FinalTemp)
	}
	if res.StartTemp <= 0 {
		t.Fatal("start temperature must be positive")
	}
}

func TestUphillMovesHappenEarly(t *testing.T) {
	q := &quadratic{x: make([]float64, 8), target: 0, step: 1}
	rng := rand.New(rand.NewSource(5))
	res := runSerial(q, rng, nil, ParallelOptions{Iterations: 5000})
	if res.Uphill == 0 {
		t.Fatal("annealing should accept some uphill moves at high temperature")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() Result {
		q := &quadratic{x: make([]float64, 4), target: 2, step: 0.5}
		return runSerial(q, rand.New(rand.NewSource(6)), nil, ParallelOptions{Iterations: 3000})
	}
	a, b := run(), run()
	if a.BestCost != b.BestCost || a.Accepted != b.Accepted {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestZeroDeltaCalibrationSafe(t *testing.T) {
	// A flat cost surface must not produce NaN temperatures.
	q := &flat{}
	rng := rand.New(rand.NewSource(7))
	res := runSerial(q, rng, nil, ParallelOptions{Iterations: 100})
	if math.IsNaN(res.StartTemp) || res.StartTemp <= 0 {
		t.Fatalf("bad start temp %v", res.StartTemp)
	}
}

type flat struct{}

func (f *flat) Cost() float64 { return 1 }
func (f *flat) Perturb(rng *rand.Rand) func() {
	return func() {}
}

// TestRunCancellation checks the Ctx contract on the serial chain: a context
// cancelled mid-walk stops the search early and marks Result.Cancelled.
func TestRunCancellation(t *testing.T) {
	q := &quadratic{x: make([]float64, 8), target: 3, step: 0.5}
	rng := rand.New(rand.NewSource(1))
	ctx, cancel := context.WithCancel(context.Background())
	moves := 0
	stopAfter := 100
	res := runSerial(q, rng, nil, ParallelOptions{
		Iterations: 20000,
		Ctx:        ctx,
		OnStride: func(done, total int, best float64) {
			moves = done
			if done >= stopAfter {
				cancel()
			}
		},
	})
	if !res.Cancelled {
		t.Fatal("cancelled run not marked Cancelled")
	}
	if res.Iterations >= 20000 {
		t.Fatalf("ran all %d iterations despite cancellation", res.Iterations)
	}
	if moves < stopAfter {
		t.Fatalf("OnStride saw only %d moves before cancel fired", moves)
	}
	// An uncancelled run with the same seed must not be marked Cancelled.
	q2 := &quadratic{x: make([]float64, 8), target: 3, step: 0.5}
	res2 := runSerial(q2, rand.New(rand.NewSource(1)), nil, ParallelOptions{Iterations: 200, Ctx: context.Background()})
	if res2.Cancelled {
		t.Fatal("uncancelled run marked Cancelled")
	}
}
