package volt

import (
	"math"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/timing"
)

// Assigner is the voltage-volume assignment engine behind Assign. Every
// Assign call derives the per-module feasible-level masks from the timing
// it is handed, sweeps the layout's adjacency and grows one candidate tree
// per module from scratch, then runs the greedy partition. What an Assigner
// keeps between calls is storage only — masks, adjacency rows, candidate
// trees and growth scratch, sized once per design size — so a caller that
// refreshes the assignment over and over (the annealing loop: the paper
// integrates voltage-volume formation into floorplanning, Sec. 6.1) holds
// one Assigner and allocates little per refresh. Any layout of any design
// is a valid next input.
//
// Trees are not cached between calls: between two stride refreshes the
// annealer's repacking changes the inputs of most trees, so a cache saves
// about one percent of a run's CPU (docs/BENCHMARKS.md, "Retired: the
// voltage candidate-tree cache").
//
// An Assigner is NOT safe for concurrent use.
type Assigner struct {
	mode Mode
	n    int

	// Inputs of candidate growth. Feasible-level sets are bitmasks (bit k =
	// levels90nm[k] feasible): the growth frontier screens thousands of
	// (intersection, candidate-mask) pairs per call, and a single AND plus
	// the precomputed lowPS table replaces the historical per-level scans
	// exactly. adj aliases sweep, the scratch each call sweeps the layout
	// into.
	adj        [][]int
	sweep      floorplan.AdjacencyScratch
	feasible   []uint32 // per-module feasible-level masks
	densities  []float64
	power      []float64
	globalMean float64
	target     float64

	cands []candTree

	// Scratch, stamped so clears are O(changed) not O(n).
	inVol      []int
	inFrontier []int
	stamp      int
	frontier   []int
	memberBuf  []int
	order      []int
	assigned   []bool
}

// candTree is one BFS candidate volume rooted at a module.
type candTree struct {
	modules []int
	levels  uint32
	score   float64
}

// lowPS[mask] is the lowest PowerScale among the mask's levels, 1 for the
// empty mask. It mirrors the historical per-candidate scan exactly: levels
// in ascending index order, strictly-lower PowerScale wins; the empty mask
// maps to 1.0 so the power-saving formula yields the historical 0.
var lowPS = func() (t [1 << len(levels90nm)]float64) {
	for mask := range t {
		ps := 1.0
		found := false
		for k, lv := range levels90nm {
			if mask&(1<<k) == 0 {
				continue
			}
			if !found || lv.PowerScale < ps {
				ps = lv.PowerScale
				found = true
			}
		}
		t[mask] = ps
	}
	return t
}()

// NewAssigner returns an engine for the mode's objective with no storage
// yet; the first Assign sizes it.
func NewAssigner(mode Mode) *Assigner {
	return &Assigner{mode: mode}
}

// Assign computes the voltage assignment for (l, ref) from scratch, reusing
// only the engine's storage, so a held engine returns exactly what a fresh
// one would. The returned Assignment is the caller's.
func (a *Assigner) Assign(l *floorplan.Layout, ref *timing.Analysis) *Assignment {
	n := len(l.Design.Modules)
	if n != a.n || a.feasible == nil {
		a.n = n
		a.feasible = make([]uint32, n)
		a.densities = make([]float64, n)
		a.power = make([]float64, n)
		a.cands = make([]candTree, n)
		a.inVol = make([]int, n)
		a.inFrontier = make([]int, n)
		a.assigned = make([]bool, n)
		a.stamp = 0
	}
	a.target = ref.Critical * targetFactor
	for m, mod := range l.Design.Modules {
		a.densities[m] = mod.PowerDensity()
		a.power[m] = mod.Power
		a.feasible[m] = a.feasibleMask(m, ref)
	}
	a.globalMean = meanOf(a.densities)
	a.adj = l.AdjacentModulesInto(&a.sweep)
	for root := range a.cands {
		c := &a.cands[root]
		members, inter := a.grow(root, nil)
		c.modules = append(c.modules[:0], members...)
		c.levels = inter
		c.score = scoreVolume(c.modules, c.levels, a.mode, a.densities, a.globalMean, a.power)
	}
	return a.partition(l)
}

// feasibleMask derives module m's feasible-level mask from the reference
// STA. Level k is feasible if slowing (or speeding) only this module keeps
// its worst hop within the target; the 1.0 V reference is always feasible
// by construction.
func (a *Assigner) feasibleMask(m int, ref *timing.Analysis) uint32 {
	base := math.Max(ref.Arrive[m], ref.Depart[m])
	var mask uint32
	for k, lv := range levels90nm {
		if base+ref.ModuleDelay[m]*lv.DelayScale <= a.target || lv.DelayScale == 1.0 {
			mask |= 1 << k
		}
	}
	return mask
}

// grow builds one voltage-volume tree from root by BFS over adjacent modules
// (paper Sec. 6.1), adding at each step the neighbour that best fits the
// mode's objective while the feasible-set intersection stays non-empty.
// Modules marked in blocked are never added.
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
func (a *Assigner) grow(root int, blocked []bool) ([]int, uint32) {
	a.stamp++
	stamp := a.stamp
	a.inVol[root] = stamp
	members := append(a.memberBuf[:0], root)
	inter := a.feasible[root]
	frontier := a.frontier[:0]
	push := func(m int) {
		if a.inVol[m] == stamp || a.inFrontier[m] == stamp {
			return
		}
		a.inFrontier[m] = stamp
		frontier = append(frontier, m)
	}
	for _, nb := range a.adj[root] {
		push(nb)
	}
	for len(members) < maxVolumeSize && len(frontier) > 0 {
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
			if a.mode == TSCAware {
				key = math.Abs(a.densities[cand] - volDens)
				// Refuse neighbours that would break the volume's
				// power-density uniformity — but keep them in the frontier;
				// the volume mean may drift back within tolerance.
				if key > densityTolerance*a.globalMean {
					frontier[w] = cand
					w++
					continue
				}
			} else {
				// Power-aware: prefer modules that allow the lowest voltage
				// (largest power saving).
				key = -(a.power[cand] * (1 - lowPS[inter&a.feasible[cand]]))
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

// partition runs the greedy volume selection over the candidates and builds
// a fresh Assignment: best-scoring candidates first (stable order on equal
// scores), skipping overlaps, then leftovers re-grown among themselves so
// the partition stays coarse.
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
		lv := pickLevel(mods, levels, a.mode, a.densities, a.globalMean)
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
			mods, levels := a.grow(m, assigned)
			addVolume(mods, levels)
		}
	}
	for m, mod := range l.Design.Modules {
		asg.TotalPower += mod.Power * asg.PowerScale[m]
	}
	return asg
}
