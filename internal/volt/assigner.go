package volt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/timing"
)

// Assigner is a reusable voltage-volume assignment engine. It produces the
// exact partition Assign produces, but keeps the intermediate state alive
// between calls — per-module feasible-level masks, the adjacency rows, the
// per-root candidate trees, and each tree's dependency footprint — so a
// Refresh after a layout change regrows only the candidate trees whose
// inputs actually changed. This is the voltage half of the annealing loop's
// incremental evaluator (internal/core): the paper integrates voltage-volume
// formation into the floorplanning loop (Sec. 6.1), and re-growing one BFS
// tree per module on every stride refresh was the loop's largest shared cost
// once the geometric caches landed.
//
// What is cacheable and why:
//
//   - module power densities and powers never change during a run (soft
//     resizes preserve area; netlist modules are immutable geometry-wise), so
//     the density inputs of both growth objectives are computed once;
//   - a candidate tree grown from root r examines only its members' adjacency
//     lists and the feasible masks of every module that ever entered its
//     frontier. The tree records that footprint (deps); if no dep's mask or
//     adjacency changed, a regrow would reproduce the tree bit for bit, so
//     the cached members/levels/score are reused as-is;
//   - the greedy partition and the leftover re-growth are cheap relative to
//     the n candidate grows and depend on every candidate, so they re-run on
//     every Refresh from the (mostly cached) candidates.
//
// The engine is self-synchronizing: every Refresh re-derives the masks from
// the timing it is handed and re-sweeps the layout's adjacency, and diffs
// both against the inputs its trees were grown from. Callers never itemize
// what changed, so any layout of the same design — one small move away or
// wholly unrelated — is a valid next input.
//
// An Assigner is NOT safe for concurrent use, and the *Assignment returned by
// Assign/Refresh is owned by the engine until the next call — callers must
// not mutate it (Repair mutates; run Repair only on assignments from the
// package-level Assign).
type Assigner struct {
	cfg Config
	n   int

	// Cached inputs of candidate growth. Feasible-level sets are bitmasks
	// (bit k = cfg.Levels[k] feasible): the growth frontier screens
	// thousands of (intersection, candidate-mask) pairs per refresh, and a
	// single AND plus the precomputed lowPS table replaces the historical
	// per-level scans exactly. adj holds the adjacency rows the trees were
	// grown from, each in its own storage; sweep is the scratch every
	// Refresh re-sweeps the layout into before diffing.
	adj        [][]int
	sweep      floorplan.AdjacencyScratch
	feasible   []uint32  // per-module feasible-level masks
	lowPS      []float64 // lowPS[mask] = lowest PowerScale among mask's levels (1 for empty)
	densities  []float64 // constant per design
	power      []float64 // constant per design
	globalMean float64
	target     float64

	cands []candTree

	// Scratch, stamped so clears are O(changed) not O(n).
	inVol      []int
	inFrontier []int
	stamp      int
	frontier   []int
	memberBuf  []int
	maskDirty  []bool
	adjDirty   []bool
	order      []int
	assigned   []bool

	last  *Assignment
	stats AssignerStats
}

// candTree is one cached BFS candidate rooted at a module.
type candTree struct {
	modules []int
	levels  uint32
	score   float64
	// deps is the tree's dependency footprint: the root, every member, and
	// every module that ever entered the growth frontier (their masks were
	// screened and their densities read; members' adjacency lists steered
	// the growth). If none of these is dirty, a regrow is bit-identical.
	deps []int
}

// AssignerStats counts the engine's lifetime work; the annealing loop
// surfaces them as Result.Stats counters.
type AssignerStats struct {
	// Refreshes counts Assign/Refresh calls; FullRebuilds of those rebuilt
	// every cache (first use, an Assign call, or a design-size change).
	Refreshes    int
	FullRebuilds int
	// CandidatesReused/CandidatesRegrown count cached per-root candidate
	// trees served as-is vs regrown because a dependency changed.
	CandidatesReused  int
	CandidatesRegrown int
}

// NewAssigner returns an empty engine; the first Assign or Refresh builds
// every cache.
func NewAssigner(cfg Config) *Assigner {
	cfg.defaults()
	if len(cfg.Levels) > 16 {
		// The feasible sets are uint32 bitmasks with a 2^levels side table;
		// realistic level menus are a handful of options (the paper uses 3).
		panic(fmt.Sprintf("volt: %d voltage levels exceed the 16 the assigner supports", len(cfg.Levels)))
	}
	a := &Assigner{cfg: cfg}
	// lowPS[mask] mirrors the historical per-candidate scan exactly: levels
	// in ascending index order, strictly-lower PowerScale wins. The empty
	// mask maps to 1.0 so the power-saving formula yields the historical 0.
	a.lowPS = make([]float64, 1<<len(cfg.Levels))
	for mask := range a.lowPS {
		ps := 1.0
		found := false
		for k, lv := range cfg.Levels {
			if mask&(1<<k) == 0 {
				continue
			}
			if !found || lv.PowerScale < ps {
				ps = lv.PowerScale
				found = true
			}
		}
		a.lowPS[mask] = ps
	}
	return a
}

// Stats returns the lifetime work counters.
func (a *Assigner) Stats() AssignerStats { return a.stats }

// Assign computes the full assignment, replacing every cache. It is
// value-identical to the package-level Assign on the same inputs.
func (a *Assigner) Assign(l *floorplan.Layout, ref *timing.Analysis) *Assignment {
	a.stats.Refreshes++
	return a.rebuild(l, ref)
}

// Refresh recomputes the assignment for (l, ref), reusing every candidate
// tree whose inputs did not change since the previous Assign/Refresh. It
// needs no account of what changed: the masks are re-derived from ref and
// the adjacency is re-swept from l, and both are diffed against the
// engine's own copies. The result is value-identical to a fresh Assign on
// (l, ref).
func (a *Assigner) Refresh(l *floorplan.Layout, ref *timing.Analysis) *Assignment {
	a.stats.Refreshes++
	n := len(l.Design.Modules)
	if a.last == nil || n != a.n {
		return a.rebuild(l, ref)
	}

	a.target = ref.Critical * a.cfg.TargetFactor
	for i := range a.maskDirty {
		a.maskDirty[i] = false
		a.adjDirty[i] = false
	}
	anyDirty := false
	// Masks absorb every timing change, including a moved target: diffing
	// them is O(n·levels), far below one candidate grow.
	for m := 0; m < n; m++ {
		if a.refreshMask(m, ref) {
			a.maskDirty[m] = true
			anyDirty = true
		}
	}
	// A moved module may keep its adjacency (pure slide): only rows whose
	// content changed dirty anything.
	if a.syncAdjacency(l) {
		anyDirty = true
	}
	if !anyDirty {
		// The assignment is a pure function of (adjacency, masks, constant
		// densities/powers, config); none of it changed.
		a.stats.CandidatesReused += n
		a.last.Target = a.target
		return a.last
	}

	// A tree dereferences adjacency lists only for its members (to push
	// their neighbours); frontier entrants contribute just their masks and
	// (constant) densities. Testing the two dirt kinds against the exact
	// slices they can influence keeps suffix-repack churn — which moves many
	// non-member neighbours — from regrowing trees it cannot have changed.
	for root := 0; root < n; root++ {
		c := &a.cands[root]
		regrow := false
		for _, m := range c.modules {
			if a.adjDirty[m] {
				regrow = true
				break
			}
		}
		if !regrow {
			for _, d := range c.deps {
				if a.maskDirty[d] {
					regrow = true
					break
				}
			}
		}
		if regrow {
			a.growCandidate(root)
			a.stats.CandidatesRegrown++
		} else {
			a.stats.CandidatesReused++
		}
	}
	a.last = a.partition(l)
	return a.last
}

// syncAdjacency sweeps l's adjacency, copies every row that differs from the
// engine's into place and marks it in adjDirty. It reports whether any row
// changed.
func (a *Assigner) syncAdjacency(l *floorplan.Layout) bool {
	changed := false
	for m, row := range l.AdjacentModulesInto(&a.sweep) {
		if !intsEqual(a.adj[m], row) {
			a.adj[m] = append(a.adj[m][:0], row...)
			a.adjDirty[m] = true
			changed = true
		}
	}
	return changed
}

// rebuild sizes and fills every cache from scratch.
func (a *Assigner) rebuild(l *floorplan.Layout, ref *timing.Analysis) *Assignment {
	n := len(l.Design.Modules)
	a.stats.FullRebuilds++
	a.stats.CandidatesRegrown += n
	if n != a.n || a.feasible == nil {
		a.n = n
		a.feasible = make([]uint32, n)
		a.densities = make([]float64, n)
		a.power = make([]float64, n)
		a.adj = make([][]int, n)
		a.cands = make([]candTree, n)
		a.inVol = make([]int, n)
		a.inFrontier = make([]int, n)
		a.maskDirty = make([]bool, n)
		a.adjDirty = make([]bool, n)
		a.assigned = make([]bool, n)
		a.stamp = 0
	}
	a.target = ref.Critical * a.cfg.TargetFactor
	for m, mod := range l.Design.Modules {
		a.densities[m] = mod.PowerDensity()
		a.power[m] = mod.Power
	}
	a.globalMean = meanOf(a.densities)
	for m := 0; m < n; m++ {
		a.refreshMask(m, ref)
	}
	a.syncAdjacency(l)
	for root := 0; root < n; root++ {
		a.growCandidate(root)
	}
	a.last = a.partition(l)
	return a.last
}

// refreshMask re-derives module m's feasible-level mask from the reference
// STA and reports whether it changed. Level k is feasible if slowing (or
// speeding) only this module keeps its worst hop within the target; the
// 1.0 V reference is always feasible by construction.
func (a *Assigner) refreshMask(m int, ref *timing.Analysis) bool {
	base := math.Max(ref.Arrive[m], ref.Depart[m])
	var mask uint32
	for k, lv := range a.cfg.Levels {
		if base+ref.ModuleDelay[m]*lv.DelayScale <= a.target || lv.DelayScale == 1.0 {
			mask |= 1 << k
		}
	}
	if mask == a.feasible[m] {
		return false
	}
	a.feasible[m] = mask
	return true
}

// growCandidate regrows root's candidate tree into its cache slot,
// re-recording the dependency footprint.
func (a *Assigner) growCandidate(root int) {
	c := &a.cands[root]
	c.deps = c.deps[:0]
	members, inter := a.grow(root, nil, &c.deps)
	c.modules = append(c.modules[:0], members...)
	c.levels = inter
	c.score = scoreVolume(c.modules, c.levels, a.cfg, a.densities, a.globalMean, a.power)
}

// grow builds one voltage-volume tree from root by BFS over adjacent modules
// (paper Sec. 6.1), adding at each step the neighbour that best fits the
// mode's objective while the feasible-set intersection stays non-empty.
// Modules marked in blocked are never added. When deps is non-nil, every
// module the growth examines (root, members, frontier entrants) is appended
// to it exactly once.
//
// The frontier is scanned destructively: entries that can never become
// feasible again — already in the volume, blocked, or failing the mask
// intersection (which only shrinks) — are evicted instead of being re-scanned
// on every later iteration, and a stamp set dedupes neighbours pushed from
// multiple members. Density-screened entries (TSC mode) stay: the volume's
// mean density moves as members join, so their refusal is not permanent.
// Member selection is identical to the historical rescan-everything frontier
// for any input: evicted entries could never be picked again, and duplicates
// shared the key of their first occurrence, which the strict minimum always
// preferred.
//
// The returned member slice aliases the engine's scratch buffer — valid only
// until the next grow.
func (a *Assigner) grow(root int, blocked []bool, deps *[]int) ([]int, uint32) {
	a.stamp++
	stamp := a.stamp
	a.inVol[root] = stamp
	members := append(a.memberBuf[:0], root)
	inter := a.feasible[root]
	if deps != nil {
		*deps = append(*deps, root)
	}
	frontier := a.frontier[:0]
	push := func(m int) {
		if a.inVol[m] == stamp || a.inFrontier[m] == stamp {
			return
		}
		a.inFrontier[m] = stamp
		frontier = append(frontier, m)
		if deps != nil {
			*deps = append(*deps, m)
		}
	}
	for _, nb := range a.adj[root] {
		push(nb)
	}
	for len(members) < a.cfg.MaxVolumeSize && len(frontier) > 0 {
		bestIdx := -1
		bestKey := math.Inf(1)
		volDens := meanDensity(members, a.densities)
		w := 0
		for _, cand := range frontier {
			if a.inVol[cand] == stamp || (blocked != nil && blocked[cand]) {
				continue // joined the volume or blocked for good: evict
			}
			if inter&a.feasible[cand] == 0 {
				continue // the intersection only shrinks: evict
			}
			var key float64
			if a.cfg.Mode == TSCAware {
				key = math.Abs(a.densities[cand] - volDens)
				// Refuse neighbours that would break the volume's
				// power-density uniformity — but keep them in the frontier;
				// the volume mean may drift back within tolerance.
				if key > a.cfg.DensityTolerance*a.globalMean {
					frontier[w] = cand
					w++
					continue
				}
			} else {
				// Power-aware: prefer modules that allow the lowest voltage
				// (largest power saving).
				key = -(a.power[cand] * (1 - a.lowPS[inter&a.feasible[cand]]))
			}
			if key < bestKey {
				bestKey, bestIdx = key, w
			}
			frontier[w] = cand
			w++
		}
		frontier = frontier[:w]
		if bestIdx < 0 {
			break
		}
		pick := frontier[bestIdx]
		frontier = append(frontier[:bestIdx], frontier[bestIdx+1:]...)
		a.inVol[pick] = stamp
		inter &= a.feasible[pick]
		members = append(members, pick)
		for _, nb := range a.adj[pick] {
			push(nb)
		}
	}
	a.memberBuf = members
	a.frontier = frontier[:0]
	return members, inter
}

// partition runs the greedy volume selection over the cached candidates and
// builds a fresh Assignment: best-scoring candidates first, skipping
// overlaps, then leftovers re-grown among themselves so the partition stays
// coarse. Mirrors the historical Assign selection exactly (stable order on
// equal scores).
func (a *Assigner) partition(l *floorplan.Layout) *Assignment {
	n := a.n
	order := a.order[:0]
	for r := 0; r < n; r++ {
		order = append(order, r)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return a.cands[order[i]].score > a.cands[order[j]].score
	})
	a.order = order

	asg := &Assignment{
		LevelOf:    make([]Level, n),
		PowerScale: make([]float64, n),
		DelayScale: make([]float64, n),
		Target:     a.target,
	}
	assigned := a.assigned
	for i := range assigned {
		assigned[i] = false
	}
	addVolume := func(mods []int, levels uint32) {
		lv := pickLevel(mods, levels, a.cfg, a.densities, a.globalMean)
		vol := Volume{Level: lv}
		for _, m := range mods {
			vol.Modules = append(vol.Modules, m)
			assigned[m] = true
			asg.LevelOf[m] = lv
			asg.PowerScale[m] = lv.PowerScale
			asg.DelayScale[m] = lv.DelayScale
		}
		sort.Ints(vol.Modules)
		asg.Volumes = append(asg.Volumes, vol)
	}
	for _, r := range order {
		c := &a.cands[r]
		free := true
		for _, m := range c.modules {
			if assigned[m] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		addVolume(c.modules, c.levels)
	}
	for m := 0; m < n; m++ {
		if !assigned[m] {
			mods, levels := a.grow(m, assigned, nil)
			addVolume(mods, levels)
		}
	}
	for m, mod := range l.Design.Modules {
		asg.TotalPower += mod.Power * asg.PowerScale[m]
	}
	return asg
}

// Equivalent compares two assignments and returns a description of the first
// divergence, or nil when they describe the same partition: identical
// volumes (same modules, same level, same order), identical per-module
// levels, and TotalPower/Target within eps (relative, floored at 1). The
// incremental evaluator's cross-check path uses it to pin Refresh against a
// fresh Assign.
func Equivalent(a, b *Assignment, eps float64) error {
	if len(a.Volumes) != len(b.Volumes) {
		return fmt.Errorf("volume count %d != %d", len(a.Volumes), len(b.Volumes))
	}
	for i := range a.Volumes {
		if a.Volumes[i].Level != b.Volumes[i].Level {
			return fmt.Errorf("volume %d level %+v != %+v", i, a.Volumes[i].Level, b.Volumes[i].Level)
		}
		if !intsEqual(a.Volumes[i].Modules, b.Volumes[i].Modules) {
			return fmt.Errorf("volume %d members %v != %v", i, a.Volumes[i].Modules, b.Volumes[i].Modules)
		}
	}
	if len(a.LevelOf) != len(b.LevelOf) {
		return fmt.Errorf("module count %d != %d", len(a.LevelOf), len(b.LevelOf))
	}
	for m := range a.LevelOf {
		if a.LevelOf[m] != b.LevelOf[m] {
			return fmt.Errorf("module %d level %+v != %+v", m, a.LevelOf[m], b.LevelOf[m])
		}
	}
	relFloor := func(v float64) float64 { return math.Max(1, math.Abs(v)) }
	if d := math.Abs(a.TotalPower - b.TotalPower); d > eps*relFloor(b.TotalPower) {
		return fmt.Errorf("total power %v != %v (|diff| %g)", a.TotalPower, b.TotalPower, d)
	}
	if d := math.Abs(a.Target - b.Target); d > eps*relFloor(b.Target) {
		return fmt.Errorf("target %v != %v (|diff| %g)", a.Target, b.Target, d)
	}
	return nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
