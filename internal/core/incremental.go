package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/timing"
	"repro/internal/volt"
)

// incrState holds the caches behind the incremental cost evaluator. The
// contract with the annealer's Perturb/Cost/undo protocol:
//
//   - a floorplan.Move touches only the dies it names, so only those dies
//     are repacked (floorplan.PackDieFromDiff, resuming from the move's
//     first changed sequence position); every other module's rect is
//     untouched, bit for bit;
//   - per-net wirelength and Elmore delay are recomputed only for nets with
//     a pin on a module whose placement actually changed — the values are
//     recomputed from scratch (not accumulated), so they are identical to a
//     full recompute;
//   - per-die power maps are re-rasterized from scratch for exactly the
//     dies a changed module left or entered (PowerMapInto, bit-identical to
//     the full path's PowerMap — an additive subtract/re-add patch would
//     leave ulp-level round-off that the discontinuous nested-means entropy
//     classification can amplify past the 1e-9 contract), and the fast
//     estimator's per-source blur responses are recomputed (ResponseInto)
//     only for dies whose map changed;
//   - per-die spatial entropies (TSC mode) are served by
//     leakage.EntropyCache: the cache diffs each dirty die's map against
//     its own value mirror and patches the nested-means sort and the
//     per-class histogram sums, reproducing the from-scratch SpatialEntropy
//     bit for bit (see the entCaches field for the rollback story);
//   - the reference and delay-scaled STA are full passes over the cached
//     net delays (timing.AnalyzeFromNetDelaysInto into pooled buffers): a
//     typical move changes the delay of hundreds of nets, past the point
//     where an itemized timing patch beats the single pass;
//   - every mutation this evaluation makes to the caches is journaled; the
//     undo closure returned by Perturb rolls the journal back, so rejected
//     moves restore the caches exactly (byte for byte — a patched die's
//     map and responses are written into its spare buffers, and a rejected
//     move swaps the pre-move ones back in rather than re-deriving them).
//
// A steady-state move allocates nothing in these caches: the journal, the
// per-die pack-diff records, the map and response double buffers and the
// blur scratch are owned here and reused move after move (see
// docs/ARCHITECTURE.md, "Per-move memory").
//
// Voltage scales are deliberately NOT journaled: the full evaluator keeps
// scales computed during a rejected evaluation too (they are not part of the
// floorplan undo), and the incremental path mirrors that — a refresh during
// a rejected move instead marks every map dirty for the next evaluation.
// The voltage assigner needs no journal either: every refresh recomputes
// the assignment from the current layout, reusing only the assigner's
// storage.
type incrState struct {
	lay *floorplan.Layout

	// modNets[m] lists the nets with a pin on module m.
	modNets [][]int

	netLen   []float64 // per-net HPWL in um, without the vertical detour
	netCross []bool    // whether the net spans dies
	netWL    []float64 // per-net HPWL including the detour (the cost term)
	netDelay []float64 // per-net Elmore delay in ns

	maps      []*geom.Grid   // per-die voltage-scaled power maps
	resp      [][]*geom.Grid // resp[s] = fast.ResponseInto(maps[s], s, ...)
	entropy   []float64      // per-die spatial entropy (TSC mode only)
	mapsValid bool           // maps/resp/entropy reflect lay under current scales

	// spareMaps[d] and spareResp[d] are die d's second buffers: a patch
	// swaps them with maps[d] and resp[d] and writes the new values there,
	// so the journal holds the pre-move ones without copying, and a
	// rollback swaps them back. blur is the fast estimator's scratch grid.
	spareMaps []*geom.Grid
	spareResp [][]*geom.Grid
	blur      *geom.Grid

	// entCaches[d] incrementally maintains die d's spatial entropy (TSC
	// mode). The caches are self-synchronizing — each Update diffs the grid
	// against the cache's own value mirror — so rejected moves need no cache
	// rollback: the journal restores the map bytes and the entropy values,
	// and the next Update on a die re-converges exactly. Only the VALUES are
	// journaled (oldEntropy).
	entCaches []*leakage.EntropyCache

	pending *floorplan.Move // applied to fp but not yet to the caches
	journal *moveJournal    // rollback record of the last evaluated move, or nil
	jbuf    moveJournal     // the journal's storage, reused for every move
	dirty   []int           // dies whose maps need patching this evaluation

	// packers[d] caches die d's skyline states so repacks resume from the
	// move's first changed sequence position; diffs[d] journals die d's
	// repack (a move repacks each touched die once, and the record is
	// settled when the journal is superseded or rolled back).
	packers []floorplan.DiePacker
	diffs   []floorplan.PackDiff

	// vasg runs every stride voltage refresh; it is held only so its
	// storage is reused from one refresh to the next.
	vasg *volt.Assigner

	// Scratch, sized once.
	netStamp []int
	stamp    int
	dieMark  []bool

	// Check-path placement mirror (evaluator.check only): the layout as of
	// the last verified evaluation. Every cross-checked eval pins the
	// modules that differ from it against the journal's exact changed set —
	// the end-to-end proof that the diff contract reports precisely the
	// real churn. movedEval marks that the current evaluation applied a
	// move (vs a cache-only re-eval, whose diff must be empty).
	checkRects []geom.Rect
	checkDies  []int
	movedEval  bool

	// Recycled buffers: the annealing loop runs one evaluation per move, so
	// per-eval allocations are worth pooling. staRef/staScaled back the
	// reference and delay-scaled STA passes.
	staRef    *timing.Analysis
	staScaled *timing.Analysis
	temps     []*geom.Grid
	powers    []float64
}

// moveJournal records every cache mutation of one evaluated move so a
// rejected move can be rolled back exactly.
type moveJournal struct {
	// reset marks a journal whose rollback must drop all caches (the move
	// was folded into a full rebuild and has no itemized record).
	reset bool
	// refreshed marks that the voltage assignment re-ran during this
	// evaluation; the new scales survive rollback (full-path parity), so
	// the maps must be rebuilt instead of restored.
	refreshed bool
	// mapsRebuilt marks that updateMaps fully rebuilt the maps during this
	// evaluation (they were invalid coming in) instead of journaling
	// per-die patches; rollback must invalidate them, not restore them.
	mapsRebuilt bool

	// mods lists exactly the modules whose placement the move changed
	// (concatenated from the per-die pack diffs — the exact set, not a
	// touched-die snapshot), with their pre-move placements in rects/dies.
	mods  []int
	rects []geom.Rect
	dies  []int

	// packDiffs journal the per-die repacks: Rollback restores the layout
	// and the packer's skyline snapshots byte-exactly, Commit settles them
	// when the move is accepted.
	packDiffs []*floorplan.PackDiff

	nets     []int
	netLen   []float64
	netCross []bool
	netWL    []float64
	netDelay []float64

	// mapDies lists the patched dies, whose pre-move maps and responses
	// sit in the spare buffers; oldEntropy holds their pre-move entropies
	// (TSC mode).
	mapDies    []int
	oldEntropy []float64
}

// begin clears the journal for a new record, keeping its storage.
func (j *moveJournal) begin() *moveJournal {
	j.reset, j.refreshed, j.mapsRebuilt = false, false, false
	j.mods, j.rects, j.dies = j.mods[:0], j.rects[:0], j.dies[:0]
	j.packDiffs = j.packDiffs[:0]
	j.nets, j.netLen, j.netCross = j.nets[:0], j.netLen[:0], j.netCross[:0]
	j.netWL, j.netDelay = j.netWL[:0], j.netDelay[:0]
	j.mapDies, j.oldEntropy = j.mapDies[:0], j.oldEntropy[:0]
	return j
}

// newIncrState allocates an empty cache set; everything is built lazily on
// the first Cost call.
func newIncrState() *incrState { return &incrState{} }

// perturb applies one floorplan move, remembers it for the next Cost call,
// and returns an undo closure that reverts both the floorplan and the
// caches.
func (ic *incrState) perturb(e *evaluator, rng *rand.Rand) func() {
	// A still-pending move (applied to the floorplan without an intervening
	// Cost — the speculative annealer's committed-winner replay does this on
	// every losing copy) folds into the new move so no staleness can slip
	// through. It must also SURVIVE an undo of the new move: the undo
	// closure reverts only this Perturb's floorplan mutation, so the folded
	// move is still applied to the floorplan but not to the caches —
	// dropping it on rollback would leave the cached layout permanently
	// stale on its dies (a latent bug the old suffix-pessimistic repack
	// partially masked by over-rewriting; the exact-diff contract and its
	// zero-tolerance cross-check require the protocol to be airtight).
	prev := ic.pending
	mv, undo := e.fp.PerturbMove(rng)
	if prev != nil {
		for i, d := range prev.Dies {
			mv.Touch(d, prev.Starts[i])
		}
	}
	// The previous move's journal is superseded: once the annealer moves
	// on without undoing, that move is committed and its pack diffs are
	// settled (its pre-move maps stay in the spare buffers, to be
	// overwritten by the next patch).
	if j := ic.journal; j != nil {
		for _, pd := range j.packDiffs {
			pd.Commit()
		}
		ic.journal = nil
	}
	ic.pending = &mv
	return func() {
		undo()
		ic.rollback(e)
		// The folded-in move survives the undo: it is still applied to the
		// floorplan and still unseen by the caches, so it stays pending.
		ic.pending = prev
	}
}

// rollback reverts the cache mutations of the last evaluated move. Called
// after the floorplan undo has already restored the sequences.
func (ic *incrState) rollback(e *evaluator) {
	ic.pending = nil
	ic.dirty = ic.dirty[:0]
	ic.movedEval = false
	j := ic.journal
	ic.journal = nil
	if j == nil {
		return // undone before any Cost ran: caches never saw the move
	}
	if j.reset {
		ic.lay = nil
		ic.mapsValid = false
		ic.packers = nil
		ic.checkRects, ic.checkDies = nil, nil
		return
	}
	// Pack-diff rollback restores both the layout entries of j.mods and the
	// packers' skyline snapshots byte-exactly (in reverse order, so a
	// cross-die move unwinds destination before source), so the next
	// repack resumes from the pre-move snapshots.
	for i := len(j.packDiffs) - 1; i >= 0; i-- {
		j.packDiffs[i].Rollback(ic.lay)
	}
	if ic.checkRects != nil {
		for i, m := range j.mods {
			ic.checkRects[m] = j.rects[i]
			ic.checkDies[m] = j.dies[i]
		}
	}
	for i, ni := range j.nets {
		ic.netLen[ni] = j.netLen[i]
		ic.netCross[ni] = j.netCross[i]
		ic.netWL[ni] = j.netWL[i]
		ic.netDelay[ni] = j.netDelay[i]
	}
	if j.refreshed || j.mapsRebuilt {
		// Either the scales changed (and survive rollback) or the maps were
		// rebuilt wholesale under the now-undone geometry; both ways they
		// must be rebuilt on the next evaluation rather than restored. The
		// spare buffers keep their grids for the rebuild's next patch.
		ic.mapsValid = false
		return
	}
	tsc := e.cfg.Mode == TSCAware
	for i, d := range j.mapDies {
		ic.maps[d], ic.spareMaps[d] = ic.spareMaps[d], ic.maps[d]
		ic.resp[d], ic.spareResp[d] = ic.spareResp[d], ic.resp[d]
		if tsc {
			ic.entropy[d] = j.oldEntropy[i]
		}
	}
}

// incrementalCost is Cost over the caches: apply the pending move (if any),
// then assemble the terms from cached per-net and per-die state.
func (e *evaluator) incrementalCost() float64 {
	ic := e.incr
	e.stats.Evals++
	switch {
	case ic.lay == nil:
		ic.initGeometry(e)
		e.stats.FullEvals++
	case ic.pending != nil:
		ic.applyMove(e)
		e.stats.IncrementalEvals++
	default:
		e.stats.IncrementalEvals++
	}

	t := &normTerms{}
	t.viol = ic.lay.OutlineViolation()
	wl := 0.0
	for _, v := range ic.netWL {
		wl += v
	}
	t.wl = wl

	if refreshed := e.refreshVoltage(ic.lay, func() *timing.Analysis {
		return ic.refSTA(e)
	}); refreshed {
		ic.mapsValid = false
		if ic.journal != nil {
			ic.journal.refreshed = true
		}
	}
	t.delay = ic.scaledSTA(e).Critical
	t.power = e.scaledPower
	t.volumes = float64(e.nVolumes)

	powers := ic.scaledPowers(e)
	ic.updateMaps(e, powers)
	ic.temps = e.fast.CombineInto(ic.resp, ic.temps)
	t.peak = peakOf(ic.temps)

	if e.cfg.Mode == TSCAware {
		corr, entropy := 0.0, 0.0
		for d := 0; d < ic.lay.Dies; d++ {
			corr += math.Abs(leakage.Pearson(ic.maps[d], ic.temps[d]))
			entropy += ic.entropy[d]
		}
		t.corr = corr / float64(ic.lay.Dies)
		t.entropy = entropy / float64(ic.lay.Dies)
	}
	t.rule = designRuleTerm(ic.lay, powers)

	cost := e.finishCost(ic.lay, t)
	if e.check {
		e.crossCheck(cost)
	}
	return cost
}

// refSTA runs the reference (unscaled) STA pass over the cached net delays,
// the timing input of the voltage refresh.
func (ic *incrState) refSTA(e *evaluator) *timing.Analysis {
	e.stats.STARebuilds++
	ic.staRef = timing.AnalyzeFromNetDelaysInto(ic.lay.Design, ic.netDelay, nil, ic.staRef)
	return ic.staRef
}

// scaledSTA is refSTA under the current voltage delay scales (the cost's
// critical-delay term).
func (ic *incrState) scaledSTA(e *evaluator) *timing.Analysis {
	e.stats.STARebuilds++
	ic.staScaled = timing.AnalyzeFromNetDelaysInto(ic.lay.Design, ic.netDelay, e.delayScale, ic.staScaled)
	return ic.staScaled
}

// crossCheck re-evaluates the current floorplan through the full-recompute
// path (using the same voltage scales) and panics if the incremental cost
// drifted past the epsilon contract. It also pins the packer diff contract
// at zero tolerance: the cached layout must equal a from-scratch Pack bit
// for bit, and the modules that moved since the last verified evaluation
// must be exactly the journal's changed set — no module missing from the
// diff, none reported spuriously. Debug aid: it forfeits the entire
// speedup, so it is only enabled by Config.CostCrossCheck and in tests.
func (e *evaluator) crossCheck(got float64) {
	e.stats.CrossChecks++
	ic := e.incr
	l := e.fp.Pack()
	want := e.finishCost(l, e.staticTerms(l))
	diff := math.Abs(got - want)
	if diff > e.stats.MaxCrossCheckError {
		e.stats.MaxCrossCheckError = diff
	}
	if diff > 1e-9*math.Max(1, math.Abs(want)) {
		panic(fmt.Sprintf("core: incremental cost %v diverged from full recompute %v (|diff| %g)",
			got, want, diff))
	}

	// Placement pin, zero tolerance: the incrementally maintained layout is
	// the full Pack, byte for byte.
	moved := ic.movedEval
	ic.movedEval = false
	for m := range l.Rects {
		if ic.lay.Rects[m] != l.Rects[m] || ic.lay.DieOf[m] != l.DieOf[m] {
			panic(fmt.Sprintf("core: incremental placement of module %d (%+v die %d) != full pack (%+v die %d)",
				m, ic.lay.Rects[m], ic.lay.DieOf[m], l.Rects[m], l.DieOf[m]))
		}
	}
	// Exact-changed-set pin: diff the layout against the last verified
	// mirror; the differing modules must be precisely the journal's mods
	// when this eval applied a move, and nothing otherwise.
	if ic.checkRects == nil || len(ic.checkRects) != len(l.Rects) {
		ic.checkRects = append(ic.checkRects[:0], ic.lay.Rects...)
		ic.checkDies = append(ic.checkDies[:0], ic.lay.DieOf...)
		return
	}
	expected := make(map[int]bool)
	if moved {
		for _, m := range ic.journal.mods {
			expected[m] = true
		}
	}
	for m := range ic.lay.Rects {
		changed := ic.lay.Rects[m] != ic.checkRects[m] || ic.lay.DieOf[m] != ic.checkDies[m]
		if changed != expected[m] {
			panic(fmt.Sprintf("core: exact-diff contract broken for module %d: placement changed=%v but journal reports changed=%v",
				m, changed, expected[m]))
		}
		if changed {
			ic.checkRects[m] = ic.lay.Rects[m]
			ic.checkDies[m] = ic.lay.DieOf[m]
		}
	}
}

// initGeometry builds the layout and per-net caches from scratch. The power
// maps are built by updateMaps once the voltage scales are known.
func (ic *incrState) initGeometry(e *evaluator) {
	ic.lay = e.fp.Pack()
	des := ic.lay.Design
	nMods, nNets := len(des.Modules), len(des.Nets)

	ic.modNets = make([][]int, nMods)
	for ni, n := range des.Nets {
		for _, m := range n.Modules {
			ic.modNets[m] = append(ic.modNets[m], ni)
		}
	}
	ic.netLen = make([]float64, nNets)
	ic.netCross = make([]bool, nNets)
	ic.netWL = make([]float64, nNets)
	ic.netDelay = make([]float64, nNets)
	for ni, n := range des.Nets {
		ic.refreshNet(ni, n, e.cfg.TimingParams)
	}

	ic.maps = make([]*geom.Grid, ic.lay.Dies)
	ic.resp = make([][]*geom.Grid, ic.lay.Dies)
	ic.spareMaps = make([]*geom.Grid, ic.lay.Dies)
	ic.spareResp = make([][]*geom.Grid, ic.lay.Dies)
	ic.blur = geom.NewGrid(e.cfg.GridN, e.cfg.GridN)
	ic.entropy = make([]float64, ic.lay.Dies)
	ic.mapsValid = false
	if e.cfg.Mode == TSCAware && ic.entCaches == nil {
		ic.entCaches = make([]*leakage.EntropyCache, ic.lay.Dies)
		for d := range ic.entCaches {
			ic.entCaches[d] = leakage.NewEntropyCache()
		}
	}

	ic.netStamp = make([]int, nNets)
	ic.dieMark = make([]bool, ic.lay.Dies)
	// A move journals each net at most once: sizing the journal's per-net
	// slices here keeps their growth out of the anneal loop.
	j := &ic.jbuf
	j.nets, j.netLen, j.netCross = make([]int, 0, nNets), make([]float64, 0, nNets), make([]bool, 0, nNets)
	j.netWL, j.netDelay = make([]float64, 0, nNets), make([]float64, 0, nNets)

	if ic.pending != nil {
		// The move is folded into this full build; there is no itemized
		// rollback record, so an undo must drop the caches entirely.
		ic.pending = nil
		ic.journal = ic.jbuf.begin()
		ic.journal.reset = true
	}
}

// scaledPowers fills the reusable per-module voltage-scaled power buffer,
// value-identical to the package-level scaledPowers helper.
func (ic *incrState) scaledPowers(e *evaluator) []float64 {
	des := ic.lay.Design
	if cap(ic.powers) < len(des.Modules) {
		ic.powers = make([]float64, len(des.Modules))
	}
	p := ic.powers[:len(des.Modules)]
	for m, mod := range des.Modules {
		p[m] = mod.Power
	}
	if e.powerScale != nil {
		for m := range p {
			p[m] *= e.powerScale[m]
		}
	}
	return p
}

// refreshNet recomputes one net's cached geometry and delay from the current
// layout. The values are recomputed exactly as the full path would, so
// unchanged nets keep bit-identical cached values.
func (ic *incrState) refreshNet(ni int, n *netlist.Net, p *timing.Params) {
	if n.Degree() < 2 {
		// Degenerate nets (single-pin, empty) carry no wire: WL and delay
		// are zero in both evaluators, matching the layout's HPWL (a
		// one-point bounding box) and the guarded ElmoreDelay, and the STA
		// pass skips them entirely.
		ic.netLen[ni], ic.netCross[ni], ic.netWL[ni], ic.netDelay[ni] = 0, false, 0, 0
		return
	}
	ln := ic.lay.NetHPWL(n, 0)
	cross := false
	die0 := -1
	for _, mi := range n.Modules {
		if die0 == -1 {
			die0 = ic.lay.DieOf[mi]
		} else if ic.lay.DieOf[mi] != die0 {
			cross = true
			break
		}
	}
	wl := ln
	if cross {
		wl = ln + p.VertLen
	}
	ic.netLen[ni] = ln
	ic.netCross[ni] = cross
	ic.netWL[ni] = wl
	ic.netDelay[ni] = timing.ElmoreDelay(ln, cross, n.Degree(), *p)
}

// applyMove repacks the dies the pending move touched through the
// diff-producing packer, journals the exact changed set, and patches the
// per-net caches from it. Map patching is deferred to updateMaps (the
// voltage scales of this evaluation must be known first).
func (ic *incrState) applyMove(e *evaluator) {
	mv := ic.pending
	ic.pending = nil
	j := ic.jbuf.begin()
	ic.journal = j
	ic.movedEval = true

	// Partial repack: only the touched dies, each resuming from the move's
	// first changed sequence position via the cached skyline snapshots.
	// PackDieFromDiff reports exactly the modules whose placement changed —
	// j.mods is that set, not a touched-die population snapshot.
	if ic.packers == nil {
		ic.packers = make([]floorplan.DiePacker, ic.lay.Dies)
		ic.diffs = make([]floorplan.PackDiff, ic.lay.Dies)
	}
	for i, d := range mv.Dies {
		pd := &ic.diffs[d]
		pd.Reset()
		e.fp.PackDieFromDiff(ic.lay, d, mv.Starts[i], &ic.packers[d], pd)
		j.packDiffs = append(j.packDiffs, pd)
		j.mods = append(j.mods, pd.Changed...)
		j.rects = append(j.rects, pd.OldRects...)
		j.dies = append(j.dies, pd.OldDies...)
		e.stats.PackDieDiffs++
		e.stats.PackReplayedPositions += pd.SeqLen - pd.From
	}
	e.stats.PackMoves++
	e.stats.recordPackChanged(len(j.mods))
	e.stats.DiesRepacked += len(mv.Dies)
	e.stats.DiesReused += ic.lay.Dies - len(mv.Dies)

	// Patch the nets touching a changed module; mark their dies map-dirty.
	ic.stamp++
	recomputed := 0
	for i := range ic.dieMark {
		ic.dieMark[i] = false
	}
	for i, m := range j.mods {
		ic.dieMark[j.dies[i]] = true       // old die
		ic.dieMark[ic.lay.DieOf[m]] = true // new die
		for _, ni := range ic.modNets[m] {
			if ic.netStamp[ni] == ic.stamp {
				continue
			}
			ic.netStamp[ni] = ic.stamp
			j.nets = append(j.nets, ni)
			j.netLen = append(j.netLen, ic.netLen[ni])
			j.netCross = append(j.netCross, ic.netCross[ni])
			j.netWL = append(j.netWL, ic.netWL[ni])
			j.netDelay = append(j.netDelay, ic.netDelay[ni])
			ic.refreshNet(ni, ic.lay.Design.Nets[ni], e.cfg.TimingParams)
			recomputed++
		}
	}
	e.stats.NetsRecomputed += recomputed
	e.stats.NetsReused += len(ic.netWL) - recomputed

	ic.dirty = ic.dirty[:0]
	for d, marked := range ic.dieMark {
		if marked {
			ic.dirty = append(ic.dirty, d)
		}
	}
}

// updateMaps brings the per-die power maps, fast-estimator responses, and
// entropy cache in line with the current layout and voltage scales: a full
// rebuild when the scales changed (or on first use), otherwise a patch of
// only the dirty dies. Both write into the grids the caches already hold.
func (ic *incrState) updateMaps(e *evaluator, powers []float64) {
	n := e.cfg.GridN
	tsc := e.cfg.Mode == TSCAware
	if !ic.mapsValid {
		for d := 0; d < ic.lay.Dies; d++ {
			if ic.maps[d] == nil {
				ic.maps[d] = geom.NewGrid(n, n)
			}
			ic.lay.PowerMapInto(d, powers, ic.maps[d])
		}
		for s := 0; s < ic.lay.Dies; s++ {
			ic.resp[s] = e.fast.ResponseInto(ic.maps[s], s, ic.resp[s], ic.blur)
			if tsc {
				ic.entropy[s] = ic.dieEntropy(e, s)
			}
		}
		ic.mapsValid = true
		ic.dirty = ic.dirty[:0]
		if ic.journal != nil {
			ic.journal.mapsRebuilt = true
		}
		e.stats.ResponsesComputed += ic.lay.Dies
		return
	}
	if len(ic.dirty) == 0 {
		e.stats.ResponsesReused += ic.lay.Dies
		return
	}
	j := ic.journal
	for _, d := range ic.dirty {
		// The pre-move map and responses move to the spare buffers (the
		// journal's record of them); the new ones overwrite the old spares.
		j.mapDies = append(j.mapDies, d)
		ic.maps[d], ic.spareMaps[d] = ic.spareMaps[d], ic.maps[d]
		ic.resp[d], ic.spareResp[d] = ic.spareResp[d], ic.resp[d]
		if ic.maps[d] == nil {
			ic.maps[d] = geom.NewGrid(n, n)
		}
		// Re-rasterize the dirty die from scratch rather than subtracting
		// the moved modules' old footprints and re-adding the new ones: the
		// additive patch leaves a few ulps of round-off on every touched
		// cell, and the nested-means classification behind the spatial
		// entropy is DISCONTINUOUS in the cell values — one ulp can flip a
		// bin across a class boundary and shift the entropy term by far
		// more than the 1e-9 contract (observed on small designs). The
		// rebuild reproduces the full path's floats bit for bit and its
		// cost is dominated by the per-dirty-die blur response below.
		ic.lay.PowerMapInto(d, powers, ic.maps[d])
	}
	for _, d := range ic.dirty {
		ic.resp[d] = e.fast.ResponseInto(ic.maps[d], d, ic.resp[d], ic.blur)
		if tsc {
			j.oldEntropy = append(j.oldEntropy, ic.entropy[d])
			ic.entropy[d] = ic.dieEntropy(e, d)
		}
	}
	e.stats.ResponsesComputed += len(ic.dirty)
	e.stats.ResponsesReused += ic.lay.Dies - len(ic.dirty)
	ic.dirty = ic.dirty[:0]
}

// dieEntropy returns die d's spatial entropy under the current maps, served
// by the incremental entropy cache. With the cross-check active every cached
// value is pinned against the from-scratch Eq. 3 evaluation at 1e-9
// (relative).
func (ic *incrState) dieEntropy(e *evaluator, d int) float64 {
	ent, patched := ic.entCaches[d].Update(ic.maps[d])
	if patched {
		e.stats.EntropyPatched++
	} else {
		e.stats.EntropyRebuilt++
	}
	if e.check {
		e.stats.EntropyCrossChecks++
		want := leakage.SpatialEntropy(ic.maps[d])
		if diff := math.Abs(ent - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
			panic(fmt.Sprintf("core: incremental entropy %v diverged from full recompute %v on die %d (|diff| %g)",
				ent, want, d, diff))
		}
	}
	return ent
}

// refreshVoltAssignment runs one stride voltage refresh on the held
// volt.Assigner: a from-scratch assignment of the current layout that
// reuses the assigner's storage. It counts every module's candidate tree as
// regrown and the adjacency as re-swept.
func (ic *incrState) refreshVoltAssignment(e *evaluator, ref *timing.Analysis) *volt.Assignment {
	if ic.vasg == nil {
		ic.vasg = volt.NewAssigner(e.voltConfig())
	}
	e.stats.VoltCandidatesRegrown += len(ic.lay.Design.Modules)
	e.stats.AdjBulkFallbacks++
	return ic.vasg.Assign(ic.lay, ref)
}
