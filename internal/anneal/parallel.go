package anneal

import (
	"math"
	"math/rand"

	"repro/internal/par"
)

// Replica is one parallel-tempering chain handed to RunParallel.
//
// Problems holds M ≥ 1 synchronized copies of the same annealing state.
// Problems[0] is the primary copy — OnBest fires when the primary holds a new
// best state. With M == 1 the replica walks exactly like Run (one Perturb per
// move, one conditional uphill draw). With M > 1 every annealing step
// evaluates up to M candidate moves concurrently, one per copy, against the
// frozen pre-step state and commits the first acceptance in candidate order
// (the speculative mode); the committed move is then replayed into every
// other copy so all M stay in lockstep. The copies must start byte-identical
// and must perturb identically when handed identical RNG streams — RunParallel
// never moves state between copies, it only replays moves.
type Replica struct {
	Problems []Problem
	// RNG drives this replica's walk. Each replica needs an independent
	// stream; RunParallel consumes it deterministically (candidate seeds and
	// accept draws only), never concurrently.
	RNG *rand.Rand
	// OnBest, when non-nil, fires whenever this replica improves on its best
	// cost, with Problems[0] holding the corresponding state. It runs on the
	// replica's stride goroutine; replicas may fire concurrently with each
	// other (but never with themselves).
	OnBest func(cost float64)
}

// ParallelOptions tunes RunParallel beyond the per-replica schedule.
//
// Zero-value semantics follow Options: every numeric field treats 0 as "use
// the default".
type ParallelOptions struct {
	// Schedule is the per-replica annealing schedule. OnBest and OnChain must
	// be nil — the per-replica best hook lives on Replica, and chain-level
	// progress is reported through OnStride at the swap barriers (the chains
	// themselves run concurrently, so a per-chain callback would race).
	Schedule Options
	// SwapEvery is the number of moves each replica runs between swap
	// barriers. Zero value: one temperature chain (Schedule.ChainLength).
	// Rounded up to the next chain multiple so swaps always happen at
	// temperature boundaries and every rung cools in lockstep.
	SwapEvery int
	// LadderFactor is the geometric spacing of the temperature ladder: rung r
	// starts at factor^r times the calibrated base temperature. Zero value:
	// 1.5.
	LadderFactor float64
	// SwapSeed seeds the dedicated swap RNG. Swap decisions consume their own
	// stream — never a replica's — so the per-replica walks are independent
	// of the swap schedule.
	SwapSeed int64
	// OnStride, when non-nil, is invoked on the coordinator goroutine after
	// every swap barrier with the per-replica moves consumed so far, the
	// total budget, and the best cost over all replicas.
	OnStride func(done, total int, best float64)
}

// ParallelResult reports a RunParallel outcome.
type ParallelResult struct {
	// Replicas holds each replica's own Result, index-aligned with the input.
	Replicas []Result
	// Best indexes the replica with the lowest BestCost (lowest index wins
	// ties); BestCost is that cost.
	Best     int
	BestCost float64
	// SwapAttempts/SwapAccepts count the Metropolis neighbor-swap decisions
	// taken at the stride barriers.
	SwapAttempts int
	SwapAccepts  int
	// SpecBatches counts speculative candidate batches (0 when every replica
	// has one problem copy); SpecCommits of those committed a move, and
	// SpecDiscarded totals the evaluated-but-discarded candidates.
	SpecBatches   int
	SpecCommits   int
	SpecDiscarded int
	// Cancelled reports that Schedule.Ctx was done before the budget ran out.
	Cancelled bool
}

// specSeedStride separates the candidate RNG streams of one speculative
// batch: candidate k draws from batchSeed + k*specSeedStride. Any large odd
// constant works — the streams only need to be distinct and reproducible.
const specSeedStride int64 = 0x6A09E667F3BCC909

// repState is one replica's mutable search state. During a stride it is
// owned exclusively by the replica's goroutine; between strides (after the
// WaitGroup barrier) the coordinator reads costs and swaps temperatures.
type repState struct {
	res       Result
	cur       float64
	temp      float64
	calTemp   float64
	cancelled bool

	specBatches   int
	specCommits   int
	specDiscarded int
}

// RunParallel anneals K replicas of the problem on a geometric temperature
// ladder with periodic Metropolis neighbor swaps (replica exchange /
// parallel tempering), each replica optionally evaluating M speculative
// candidate moves concurrently per step.
//
// Determinism contract: for fixed inputs (problem states, per-replica RNG
// seeds, SwapSeed, schedule) the outcome is byte-identical on every run and
// for every GOMAXPROCS — replicas interact only at the swap barriers, swap
// decisions consume a dedicated RNG in fixed pair order, candidate k of a
// batch always evaluates on problem copy k from a seed-derived stream, and
// every reduction runs in index order. A single replica with a single
// problem copy walks bit-identically to Run on the same RNG.
//
// RunParallel panics on structurally invalid input (no replicas, a replica
// without problems or RNG, schedule hooks set); use Schedule.Validate for
// value errors, as with Run.
func RunParallel(reps []Replica, opts ParallelOptions) ParallelResult {
	if len(reps) == 0 {
		panic("anneal: RunParallel needs at least one replica")
	}
	for i := range reps {
		if len(reps[i].Problems) == 0 {
			panic("anneal: replica without problem copies")
		}
		if reps[i].RNG == nil {
			panic("anneal: replica without an RNG stream")
		}
	}
	sched := opts.Schedule
	if sched.OnBest != nil || sched.OnChain != nil {
		panic("anneal: Schedule.OnBest/OnChain must be nil (use Replica.OnBest and ParallelOptions.OnStride)")
	}
	sched.defaults()
	if opts.LadderFactor == 0 {
		opts.LadderFactor = 1.5
	}
	if opts.SwapEvery == 0 {
		opts.SwapEvery = sched.ChainLength
	}
	if r := opts.SwapEvery % sched.ChainLength; r != 0 {
		opts.SwapEvery += sched.ChainLength - r
	}

	k := len(reps)
	states := make([]repState, k)

	// Calibrate every replica concurrently on its own RNG stream, exactly as
	// Run does (random walk, mean |ΔC|).
	fanOut(k, func(r int) { states[r].calibrate(reps[r], &sched) })

	// Temperature ladder: rung r starts at base·factor^r, where base is the
	// index-ordered mean of the calibrated temperatures (index order keeps
	// the float sum scheduling-independent). Rung 0 anneals nearest the
	// serial schedule; higher rungs run hotter and trade states down the
	// ladder through swaps.
	base := 0.0
	for r := range states {
		base += states[r].calTemp
	}
	base /= float64(k)
	for r := range states {
		st := &states[r]
		st.temp = base * math.Pow(opts.LadderFactor, float64(r))
		st.res.StartTemp = st.temp
		st.res.BestCost = st.cur
		if reps[r].OnBest != nil {
			reps[r].OnBest(st.cur)
		}
	}

	res := ParallelResult{Replicas: make([]Result, k)}
	swapRNG := rand.New(rand.NewSource(opts.SwapSeed))
	done := 0
	for stride := 0; done < sched.Iterations; stride++ {
		n := sched.Iterations - done
		if n > opts.SwapEvery {
			n = opts.SwapEvery
		}
		fanOut(k, func(r int) { states[r].runStride(&reps[r], &sched, done, n) })
		cancelled := sched.Ctx != nil && sched.Ctx.Err() != nil
		for r := range states {
			cancelled = cancelled || states[r].cancelled
		}
		if cancelled {
			res.Cancelled = true
			break
		}
		done += n

		// Neighbor swaps at the barrier: alternating parity pairs — even
		// strides attempt (0,1)(2,3)…, odd strides (1,2)(3,4)… — in fixed
		// order on the dedicated swap RNG. The Metropolis criterion
		// exp((C_i−C_j)(1/T_i−1/T_j)) exchanges the two rungs' current
		// temperatures (equivalently, the configurations trade places on the
		// ladder); states, RNG streams, and best snapshots stay put.
		if k > 1 && done < sched.Iterations {
			for i := stride % 2; i+1 < k; i += 2 {
				a, b := &states[i], &states[i+1]
				res.SwapAttempts++
				u := swapRNG.Float64()
				if u < math.Exp((a.cur-b.cur)*(1/a.temp-1/b.temp)) {
					a.temp, b.temp = b.temp, a.temp
					res.SwapAccepts++
				}
			}
		}
		if opts.OnStride != nil {
			best := math.Inf(1)
			for r := range states {
				if states[r].res.BestCost < best {
					best = states[r].res.BestCost
				}
			}
			opts.OnStride(done, sched.Iterations, best)
		}
	}

	best := 0
	for r := range states {
		st := &states[r]
		st.res.FinalCost = st.cur
		st.res.FinalTemp = st.temp
		if st.cancelled {
			st.res.Cancelled = true
		}
		res.Replicas[r] = st.res
		res.SpecBatches += st.specBatches
		res.SpecCommits += st.specCommits
		res.SpecDiscarded += st.specDiscarded
		if st.res.BestCost < states[best].res.BestCost {
			best = r
		}
	}
	res.Best = best
	res.BestCost = states[best].res.BestCost
	return res
}

// calibrate estimates the replica's cost scale along a random walk, exactly
// mirroring Run's calibration. With M > 1 problem copies every copy replays
// the identical walk on a shared per-move seed, so the copies' evaluation
// counters (and any stride caches keyed on them) advance in lockstep from
// the very first Cost call.
func (st *repState) calibrate(rep Replica, sched *Options) {
	m := len(rep.Problems)
	var cur, meanDelta float64
	walked := 0
	if m == 1 {
		p := rep.Problems[0]
		cur = p.Cost()
		for i := 0; i < sched.CalibrationMoves; i++ {
			if sched.Ctx != nil && sched.Ctx.Err() != nil {
				break
			}
			undo := mustPerturb(p, rep.RNG)
			c := p.Cost()
			meanDelta += math.Abs(c - cur)
			walked++
			undo()
		}
	} else {
		curs := make([]float64, m)
		fanOut(m, func(k int) { curs[k] = rep.Problems[k].Cost() })
		cur = curs[0]
		undos := make([]func(), m)
		costs := make([]float64, m)
		for i := 0; i < sched.CalibrationMoves; i++ {
			if sched.Ctx != nil && sched.Ctx.Err() != nil {
				break
			}
			seed := rep.RNG.Int63()
			fanOut(m, func(k int) {
				undos[k] = mustPerturb(rep.Problems[k], rand.New(rand.NewSource(seed)))
				costs[k] = rep.Problems[k].Cost()
			})
			meanDelta += math.Abs(costs[0] - cur)
			walked++
			for k := range undos {
				undos[k]()
			}
		}
	}
	if walked > 0 {
		meanDelta /= float64(walked)
	}
	if meanDelta <= 0 {
		meanDelta = math.Abs(cur)*0.01 + 1e-12
	}
	st.calTemp = -meanDelta / math.Log(sched.InitAcceptProb)
	st.cur = cur
}

// runStride advances the replica by up to n moves starting at global move
// index start, cooling at every chain boundary it crosses.
func (st *repState) runStride(rep *Replica, sched *Options, start, n int) {
	spec := len(rep.Problems) > 1
	for done := 0; done < n; {
		if sched.Ctx != nil && sched.Ctx.Err() != nil {
			st.cancelled = true
			return
		}
		it := start + done
		var consumed int
		if spec {
			consumed = st.specBatch(rep, sched, it, n-done)
		} else {
			consumed = st.serialMove(rep, sched)
		}
		for b := it + 1; b <= it+consumed; b++ {
			if b%sched.ChainLength == 0 {
				st.temp *= sched.Alpha
			}
		}
		st.res.Iterations += consumed
		done += consumed
	}
}

// serialMove is one move of Run's loop, bit-identical on the same RNG: one
// Perturb, one Cost, and an uphill draw only when the move goes uphill.
func (st *repState) serialMove(rep *Replica, sched *Options) int {
	p := rep.Problems[0]
	undo := mustPerturb(p, rep.RNG)
	c := p.Cost()
	delta := c - st.cur
	accept := delta <= 0
	if !accept {
		if rep.RNG.Float64() < math.Exp(-delta/st.temp) {
			accept = true
			st.res.Uphill++
		}
	}
	if accept {
		st.cur = c
		st.res.Accepted++
		if c < st.res.BestCost {
			st.res.BestCost = c
			if rep.OnBest != nil {
				rep.OnBest(c)
			}
		}
	} else {
		undo()
	}
	return 1
}

// specBatch evaluates up to M candidate moves concurrently against the
// frozen pre-step state and commits the first acceptance in candidate order.
//
// Candidate k perturbs problem copy k from the stream batchSeed +
// k·specSeedStride and always draws its uphill number, so the whole batch is
// a pure function of the replica RNG — which candidates exist, which worker
// evaluates which, and every accept draw are all fixed before any goroutine
// runs. The batch never crosses a chain boundary (all candidates score at
// one temperature) and consumes its full width from the budget: losers after
// the committed candidate are the price of speculation (SpecDiscarded), just
// as a serial chain would have spent those moves on now-invalidated state.
//
// After the decision, losers roll back byte-exactly and replay the committed
// candidate from its seed — identical state plus an identical stream
// reproduces the identical move on every copy. Copies clamped out of a
// short batch run one bare Cost instead, keeping all M evaluation counters
// in lockstep.
func (st *repState) specBatch(rep *Replica, sched *Options, it, left int) int {
	width := len(rep.Problems)
	m := width
	if chainLeft := sched.ChainLength - it%sched.ChainLength; m > chainLeft {
		m = chainLeft
	}
	if m > left {
		m = left
	}
	batchSeed := rep.RNG.Int63()
	undos := make([]func(), m)
	costs := make([]float64, m)
	draws := make([]float64, m)
	fanOut(len(rep.Problems), func(k int) {
		if k >= m {
			rep.Problems[k].Cost()
			return
		}
		wrng := rand.New(rand.NewSource(batchSeed + int64(k)*specSeedStride))
		undos[k] = mustPerturb(rep.Problems[k], wrng)
		costs[k] = rep.Problems[k].Cost()
		draws[k] = wrng.Float64()
	})

	commit := -1
	uphill := false
	for c := 0; c < m; c++ {
		delta := costs[c] - st.cur
		if delta <= 0 {
			commit = c
			break
		}
		if draws[c] < math.Exp(-delta/st.temp) {
			commit, uphill = c, true
			break
		}
	}
	st.specBatches++
	if commit < 0 {
		st.specDiscarded += m
		for c := range undos {
			undos[c]()
		}
		return m
	}
	st.specCommits++
	st.specDiscarded += m - 1
	winSeed := batchSeed + int64(commit)*specSeedStride
	for c := 0; c < width; c++ {
		if c == commit {
			continue
		}
		if c < m {
			undos[c]()
		}
		rep.Problems[c].Perturb(rand.New(rand.NewSource(winSeed)))
	}
	st.cur = costs[commit]
	st.res.Accepted++
	if uphill {
		st.res.Uphill++
	}
	if st.cur < st.res.BestCost {
		st.res.BestCost = st.cur
		if rep.OnBest != nil {
			rep.OnBest(st.cur)
		}
	}
	return m
}

// fanOut runs fn(i) for every i in [0, n), each on its own goroutine when
// n > 1, and waits for all of them. Each fn(i) touches only replica or copy
// i and slot i of the batch arrays, so the fan-out is
// scheduling-independent. Through par.For, a panic in any fn(i) is
// re-raised on the caller's goroutine after the barrier, where the flow's
// recover can handle it.
func fanOut(n int, fn func(i int)) {
	par.For(n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
