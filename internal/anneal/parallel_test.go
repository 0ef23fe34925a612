package anneal

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// incrSum is the incremental-cost model problem for the parallel harness:
// cost = Σ (x_i − target_i)², held as a running cached sum patched on every
// move — the float-drift hazard the real evaluator's journal contract guards
// against — with the journaled undo restoring the cached value byte-exactly,
// as the evaluator's rollback does. FullCost is the from-scratch reference
// the 1e-9 invariant is checked against.
type incrSum struct {
	x      []float64
	target []float64
	cached float64
	// evals counts Cost calls, mirroring the evaluator's stride counter that
	// speculative copies must keep in lockstep.
	evals int
	// mirror/pending model the evaluator's exact-diff bookkeeping: mirror is
	// the state as of the last Cost (the evaluator's changed-set mirror),
	// pending the indices perturbed since then (the evaluator's pending
	// move, which must survive the undo of a move it was folded into — the
	// speculative loser-replay protocol). Cost absorbs pending into mirror;
	// outside pending, mirror must stay byte-identical to x.
	mirror  []float64
	pending []int
}

func newIncrSum(n int, rng *rand.Rand) *incrSum {
	p := &incrSum{x: make([]float64, n), target: make([]float64, n)}
	for i := range p.x {
		p.x[i] = rng.NormFloat64()
		p.target[i] = rng.NormFloat64()
	}
	p.cached = p.FullCost()
	p.mirror = append([]float64(nil), p.x...)
	return p
}

func (p *incrSum) Clone() *incrSum {
	return &incrSum{
		x:       append([]float64(nil), p.x...),
		target:  append([]float64(nil), p.target...),
		cached:  p.cached,
		evals:   p.evals,
		mirror:  append([]float64(nil), p.mirror...),
		pending: append([]int(nil), p.pending...),
	}
}

func (p *incrSum) FullCost() float64 {
	c := 0.0
	for i := range p.x {
		d := p.x[i] - p.target[i]
		c += d * d
	}
	return c
}

func (p *incrSum) Cost() float64 {
	p.evals++
	for _, i := range p.pending {
		p.mirror[i] = p.x[i]
	}
	p.pending = p.pending[:0]
	return p.cached
}

func (p *incrSum) Perturb(rng *rand.Rand) func() {
	i := rng.Intn(len(p.x))
	step := (rng.Float64()*2 - 1) * 0.5
	oldX, oldCached, oldMirror := p.x[i], p.cached, p.mirror[i]
	pendLen := len(p.pending)
	od := p.x[i] - p.target[i]
	p.x[i] += step
	nd := p.x[i] - p.target[i]
	p.cached += nd*nd - od*od
	p.pending = append(p.pending, i)
	return func() {
		p.x[i], p.cached = oldX, oldCached
		// Exact-diff rollback: restore the mirror entry (in case a Cost
		// absorbed this move) and truncate pending back to the fold point —
		// a previously pending move survives this undo, exactly like the
		// evaluator's journal rollback.
		p.mirror[i] = oldMirror
		p.pending = p.pending[:pendLen]
	}
}

// checkInvariant pins the journal invariant: the incrementally patched cost
// must track the full recompute within 1e-9 relative.
func (p *incrSum) checkInvariant(t *testing.T, label string) {
	t.Helper()
	full := p.FullCost()
	if d := math.Abs(p.cached - full); d > 1e-9*math.Max(1, math.Abs(full)) {
		t.Fatalf("%s: cached cost %v drifted from full recompute %v (|diff| %g)", label, p.cached, full, d)
	}
	// Diff bookkeeping must be byte-exact, not epsilon-close: outside the
	// pending set the mirror is the state the last Cost saw, and the
	// harness's freeze/rollback/replay paths must never smear it.
	pend := make(map[int]bool, len(p.pending))
	for _, i := range p.pending {
		pend[i] = true
	}
	for i := range p.x {
		if !pend[i] && p.mirror[i] != p.x[i] {
			t.Fatalf("%s: mirror[%d] = %v differs from x[%d] = %v outside the pending set %v",
				label, i, p.mirror[i], i, p.x[i], p.pending)
		}
	}
}

// specReplica builds one replica with m synchronized copies of a fresh
// problem, drawing everything from rng.
func specReplica(n, m int, rng *rand.Rand) (Replica, []*incrSum) {
	base := newIncrSum(n, rng)
	sums := []*incrSum{base}
	probs := []Problem{base}
	for k := 1; k < m; k++ {
		c := base.Clone()
		sums = append(sums, c)
		probs = append(probs, c)
	}
	return Replica{Problems: probs, RNG: rng}, sums
}

// buildFleet constructs K replicas × M copies deterministically from a base
// seed, for the determinism tests.
func buildFleet(k, m int) ([]Replica, [][]*incrSum) {
	reps := make([]Replica, k)
	sums := make([][]*incrSum, k)
	for r := range reps {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		reps[r], sums[r] = specReplica(12, m, rng)
	}
	return reps, sums
}

// TestRunParallelDeterministicAcrossGOMAXPROCS is the engine half of the
// determinism contract: fixed seeds and a fixed replica/speculation shape
// give an identical ParallelResult and identical final states for any
// GOMAXPROCS.
func TestRunParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() (ParallelResult, [][]float64) {
		reps, sums := buildFleet(4, 3)
		res := RunParallel(reps, ParallelOptions{
			Iterations: 600,
			SwapSeed:   9,
		})
		states := make([][]float64, len(sums))
		for r := range sums {
			states[r] = append([]float64(nil), sums[r][0].x...)
		}
		return res, states
	}

	var ref ParallelResult
	var refStates [][]float64
	for i, procs := range []int{1, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		res, states := run()
		runtime.GOMAXPROCS(old)
		if i == 0 {
			ref, refStates = res, states
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("GOMAXPROCS=%d: result diverged\n got %+v\nwant %+v", procs, res, ref)
		}
		if !reflect.DeepEqual(states, refStates) {
			t.Fatalf("GOMAXPROCS=%d: final replica states diverged", procs)
		}
	}
}

// TestSpeculationKeepsCopiesInLockstep drives one replica with 4 speculative
// copies through a budget that is not a multiple of the batch width (forcing
// clamped batches at chain boundaries) and asserts all copies end
// byte-identical — state, patched cost, and evaluation counters.
func TestSpeculationKeepsCopiesInLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rep, sums := specReplica(10, 4, rng)
	const budget = 777
	res := RunParallel([]Replica{rep}, ParallelOptions{Iterations: budget})

	if got := res.Replicas[0].Iterations; got != budget {
		t.Fatalf("consumed %d iterations, want the full budget %d", got, budget)
	}
	if res.SpecBatches == 0 || res.SpecCommits == 0 {
		t.Fatalf("speculation did no work: %+v", res)
	}
	if res.SpecDiscarded != budget-res.SpecCommits {
		t.Fatalf("discard accounting off: %d discarded, %d commits, budget %d",
			res.SpecDiscarded, res.SpecCommits, budget)
	}
	if res.Replicas[0].Accepted != res.SpecCommits {
		t.Fatalf("accepted %d != committed batches %d", res.Replicas[0].Accepted, res.SpecCommits)
	}
	primary := sums[0]
	primary.checkInvariant(t, "primary")
	for k, c := range sums[1:] {
		if !reflect.DeepEqual(c.x, primary.x) {
			t.Fatalf("copy %d state diverged from primary", k+1)
		}
		if c.cached != primary.cached {
			t.Fatalf("copy %d cached cost %v != primary %v", k+1, c.cached, primary.cached)
		}
		if c.evals != primary.evals {
			t.Fatalf("copy %d saw %d evals, primary %d — stride counters out of lockstep", k+1, c.evals, primary.evals)
		}
	}
}

// TestLadderAndSwapAccounting checks the temperature ladder spacing and the
// swap bookkeeping on a 4-replica run.
func TestLadderAndSwapAccounting(t *testing.T) {
	reps, sums := buildFleet(4, 1)
	res := RunParallel(reps, ParallelOptions{Iterations: 2000, SwapSeed: 3})
	for r := 1; r < len(res.Replicas); r++ {
		ratio := res.Replicas[r].StartTemp / res.Replicas[r-1].StartTemp
		if math.Abs(ratio-1.5) > 1e-9 {
			t.Fatalf("rung %d/%d start-temp ratio %v, want the ladder factor 1.5", r, r-1, ratio)
		}
	}
	if res.SwapAttempts == 0 {
		t.Fatal("no swaps attempted over a multi-stride 4-replica run")
	}
	if res.SwapAccepts > res.SwapAttempts {
		t.Fatalf("swap accepts %d exceed attempts %d", res.SwapAccepts, res.SwapAttempts)
	}
	wantBest, wantCost := 0, math.Inf(1)
	for r := range res.Replicas {
		if res.Replicas[r].BestCost < wantCost {
			wantBest, wantCost = r, res.Replicas[r].BestCost
		}
	}
	if res.Best != wantBest || res.BestCost != wantCost {
		t.Fatalf("best-of pick Best=%d BestCost=%v, want %d/%v", res.Best, res.BestCost, wantBest, wantCost)
	}
	for r := range sums {
		sums[r][0].checkInvariant(t, "replica")
	}
}

// TestOnStrideProgress checks the barrier progress hook: done advances
// monotonically to the budget and the reported best never regresses.
func TestOnStrideProgress(t *testing.T) {
	reps, _ := buildFleet(3, 2)
	lastDone, lastBest := 0, math.Inf(1)
	calls := 0
	res := RunParallel(reps, ParallelOptions{
		Iterations: 1200,
		OnStride: func(done, total int, best float64) {
			calls++
			if done <= lastDone || done > total {
				t.Fatalf("OnStride done %d after %d (total %d)", done, lastDone, total)
			}
			if best > lastBest {
				t.Fatalf("OnStride best regressed: %v after %v", best, lastBest)
			}
			lastDone, lastBest = done, best
		},
	})
	if calls == 0 {
		t.Fatal("OnStride never fired")
	}
	if lastDone != 1200 {
		t.Fatalf("final OnStride reported %d moves, want the full budget", lastDone)
	}
	if res.Cancelled {
		t.Fatal("uncancelled run marked Cancelled")
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (the PR 5 Stream-cancellation idiom), dumping stacks on timeout.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
}

// TestRunParallelPreCancelled cancels before the first stride: the engine
// must return immediately with Cancelled set, zero move iterations, and no
// replica worker left behind.
func TestRunParallelPreCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reps, _ := buildFleet(3, 2)
	res := RunParallel(reps, ParallelOptions{Iterations: 5000, Ctx: ctx})
	if !res.Cancelled {
		t.Fatal("pre-cancelled run not marked Cancelled")
	}
	for r := range res.Replicas {
		if res.Replicas[r].Iterations != 0 {
			t.Fatalf("replica %d ran %d moves under a pre-cancelled context", r, res.Replicas[r].Iterations)
		}
	}
	waitGoroutines(t, baseline)
}

// TestRunParallelCancelAtSwapBarrier cancels from the OnStride hook — the
// point right after a swap phase — and verifies the next stride never runs
// and every replica goroutine exits.
func TestRunParallelCancelAtSwapBarrier(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reps, _ := buildFleet(3, 1)
	strides := 0
	res := RunParallel(reps, ParallelOptions{
		Iterations: 100000,
		Ctx:        ctx,
		OnStride: func(done, total int, best float64) {
			strides++
			cancel()
		},
	})
	if !res.Cancelled {
		t.Fatal("run cancelled at the swap barrier not marked Cancelled")
	}
	if strides != 1 {
		t.Fatalf("ran %d strides after cancellation at the first barrier", strides)
	}
	if res.Replicas[0].Iterations >= 100000 {
		t.Fatal("budget fully consumed despite cancellation")
	}
	waitGoroutines(t, baseline)
}

// cancellingProblem cancels its context after a fixed number of Cost calls,
// driving cancellation from inside a replica stride (and, with speculation,
// from inside a candidate batch).
type cancellingProblem struct {
	*incrSum
	cancel func()
	after  int
	calls  int
}

func (p *cancellingProblem) Cost() float64 {
	p.calls++
	if p.calls == p.after {
		p.cancel()
	}
	return p.incrSum.Cost()
}

// TestRunParallelCancelMidStride cancels from inside one replica's cost
// evaluation mid-stride; all replicas must wind down without leaking.
func TestRunParallelCancelMidStride(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reps, _ := buildFleet(3, 2)
	cp := &cancellingProblem{
		incrSum: newIncrSum(10, rand.New(rand.NewSource(77))),
		cancel:  cancel,
		after:   300,
	}
	reps[0].Problems[0] = cp
	// Re-sync the speculative copy with the wrapped primary's state.
	reps[0].Problems[1] = cp.incrSum.Clone()
	res := RunParallel(reps, ParallelOptions{Iterations: 100000, Ctx: ctx})
	if !res.Cancelled {
		t.Fatal("mid-stride cancellation not marked Cancelled")
	}
	for r := range res.Replicas {
		if res.Replicas[r].Iterations >= 100000 {
			t.Fatalf("replica %d consumed the full budget despite cancellation", r)
		}
	}
	waitGoroutines(t, baseline)
}

// panickingProblem panics on its at-th Cost call.
type panickingProblem struct {
	*incrSum
	at, calls int
}

func (p *panickingProblem) Cost() float64 {
	p.calls++
	if p.calls == p.at {
		panic("problem failed")
	}
	return p.incrSum.Cost()
}

// TestRunParallelPanicReachesCaller pins panic containment for every
// fan-out RunParallel spawns — replica calibration, the per-stride replica
// fan-out and the speculative candidate batch: a Problem that panics on a
// spawned goroutine must panic on the caller's goroutine, after the
// barrier, with its own value, and leave no goroutine behind. Without the
// recover at the spawn site the panic would end the test binary.
func TestRunParallelPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    int // problem copies per replica; the last copy panics
		at   int // its Cost call that panics (calibration makes 51)
	}{
		{"calibrate", 1, 10},
		{"stride", 1, 200},
		{"speculative-batch", 2, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			reps, _ := buildFleet(3, tc.m)
			last := len(reps[1].Problems) - 1
			reps[1].Problems[last] = &panickingProblem{incrSum: reps[1].Problems[last].(*incrSum), at: tc.at}
			func() {
				defer func() {
					if v := recover(); v != "problem failed" {
						t.Fatalf("recovered %v, want the problem's panic", v)
					}
				}()
				RunParallel(reps, ParallelOptions{Iterations: 2000})
			}()
			waitGoroutines(t, baseline)
		})
	}
}

// TestRunParallelPanicsOnMisuse pins the structural-misuse panics.
func TestRunParallelPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
	expectPanic("no-replicas", func() { RunParallel(nil, ParallelOptions{}) })
	expectPanic("no-problems", func() {
		RunParallel([]Replica{{RNG: rand.New(rand.NewSource(1))}}, ParallelOptions{})
	})
	expectPanic("no-rng", func() {
		RunParallel([]Replica{{Problems: []Problem{&flat{}}}}, ParallelOptions{})
	})
	expectPanic("nil-undo", func() {
		RunParallel([]Replica{
			{Problems: []Problem{&flat{}}, RNG: rand.New(rand.NewSource(1))},
			{Problems: []Problem{&nilUndo{}}, RNG: rand.New(rand.NewSource(2))},
		}, ParallelOptions{})
	})
}

// nilUndo breaks the Problem contract: its Perturb returns no undo.
type nilUndo struct{ flat }

func (*nilUndo) Perturb(*rand.Rand) func() { return nil }

// TestRunParallelFindsMinimum sanity-checks that the tempered fleet still
// optimizes: 4 replicas must approach the quadratic minimum at least as well
// as the serial baseline's loose bound.
func TestRunParallelFindsMinimum(t *testing.T) {
	reps := make([]Replica, 4)
	for r := range reps {
		rng := rand.New(rand.NewSource(int64(10 + r)))
		q := &quadratic{x: make([]float64, 8), target: 3, step: 0.5}
		reps[r] = Replica{Problems: []Problem{q}, RNG: rng}
	}
	res := RunParallel(reps, ParallelOptions{Iterations: 20000})
	if res.BestCost > 0.5 {
		t.Fatalf("best cost %v; tempered fleet failed to approach minimum", res.BestCost)
	}
}
