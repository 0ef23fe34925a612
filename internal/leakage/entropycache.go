package leakage

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// EntropyCache is an incremental evaluator for the spatial entropy S_d
// (paper Eq. 3) of one power map that changes a few bins at a time — the
// annealing loop's per-dirty-die entropy refresh, where the map is patched
// per move (moved footprints subtracted and re-added) and a from-scratch
// SpatialEntropy was the last full-map recompute left on the shared path.
//
// What is cached and how it stays exact:
//
//   - the value-sorted bin list behind the nested-means classification is
//     maintained by merging the changed bins into the previous sort instead
//     of re-sorting the whole map. The split decisions read only the value
//     sequence and never cut inside a run of equal values (see
//     nestedMeansSplit), so the maintained order reproduces the from-scratch
//     classification bin for bin;
//   - the nested-means class boundaries are re-validated on every update by
//     re-running the (cheap, sort-free) split recursion over the maintained
//     order with the exact arithmetic of the full path — value drift that
//     invalidates a boundary is thereby detected exactly, never missed by an
//     approximate bound;
//   - the per-class Manhattan terms of Eq. 3 are evaluated from per-class
//     coordinate histograms instead of per-class coordinate sorts. Bin
//     coordinates are small integers, so every pairwise and cross sum is an
//     exactly representable integer and the histogram evaluation returns the
//     bit-identical dIntra/dInter the sort-based path computes (exact while
//     n*n*(nx+ny) stays below 2^53 — comfortably beyond any realistic grid).
//
// Update is self-synchronizing: it diffs the incoming grid against the
// cache's own mirror of the last seen values, so callers never itemize
// changes, and a rejected move needs no cache rollback — the next Update
// against the restored map re-converges to the exact from-scratch entropy.
// An EntropyCache is not safe for concurrent use.
type EntropyCache struct {
	nx, ny int
	valid  bool

	vals    []float64 // vals[bin] mirrors the last synchronized grid
	items   []item    // vals sorted ascending (any tie order)
	classOf []int     // bin -> dense class id, ascending power
	entropy float64

	// Exact per-coordinate cross sums against the full grid: crossX[x] is
	// sum over every bin b of |x - x_b|, likewise crossY. Constant per grid
	// shape.
	crossX, crossY []float64

	// Scratch, reused across updates.
	changedMark []bool
	changedBins []int
	newEntries  []item
	mergeBuf    []item
	histX       []int // nClasses * nx flattened per-class x histograms
	histY       []int // nClasses * ny
	classCnt    []int
}

// NewEntropyCache returns an empty cache; the first Update builds every
// structure from scratch.
func NewEntropyCache() *EntropyCache { return &EntropyCache{} }

// Entropy returns the last computed spatial entropy. Only meaningful after
// an Update.
func (c *EntropyCache) Entropy() float64 { return c.entropy }

// Invalidate drops the cached state; the next Update rebuilds from scratch.
func (c *EntropyCache) Invalidate() { c.valid = false }

// Update synchronizes the cache with the grid's current contents and returns
// the spatial entropy, bit-identical to SpatialEntropy(power) on the
// same data. patched reports whether the update was served incrementally
// (false on the first use, a grid-shape change, or when more than a quarter
// of the bins changed — then a from-scratch rebuild is cheaper than the
// merge). It panics on invalid power maps (see ValidatePowerMap), mirroring
// SpatialEntropy's contract.
func (c *EntropyCache) Update(power *geom.Grid) (entropy float64, patched bool) {
	if err := ValidatePowerMap(power); err != nil {
		panic(err.Error())
	}
	n := len(power.Data)
	if !c.valid || power.NX != c.nx || power.NY != c.ny {
		c.rebuild(power)
		return c.entropy, false
	}

	// Diff against the mirror: the caller patches maps in place, so the
	// changed set is re-derived here rather than itemized by the caller.
	changed := c.changedBins[:0]
	for i, v := range power.Data {
		//lint:floateq mirror diff: untouched bins are byte-copies of the mirror, so any difference is a real patch
		if v != c.vals[i] {
			changed = append(changed, i)
		}
	}
	c.changedBins = changed
	if len(changed) == 0 {
		return c.entropy, true
	}
	if len(changed) > n/4 {
		// Wholesale change (e.g. new voltage scales touched every bin): the
		// merge would shuffle most of the array anyway.
		c.rebuild(power)
		return c.entropy, false
	}

	// Merge the changed bins into the maintained sort: drop their stale
	// entries, weave in the re-sorted new values.
	for _, b := range changed {
		c.changedMark[b] = true
	}
	newEntries := c.newEntries[:0]
	for _, b := range changed {
		newEntries = append(newEntries, item{power.Data[b], b})
	}
	sort.Slice(newEntries, func(i, j int) bool { return newEntries[i].val < newEntries[j].val })
	c.newEntries = newEntries

	merged := c.mergeBuf[:0]
	k := 0
	for _, it := range c.items {
		if c.changedMark[it.idx] {
			continue // stale entry of a changed bin
		}
		for k < len(newEntries) && newEntries[k].val < it.val {
			merged = append(merged, newEntries[k])
			k++
		}
		merged = append(merged, it)
	}
	merged = append(merged, newEntries[k:]...)
	c.mergeBuf = c.items[:0]
	c.items = merged

	for _, b := range changed {
		c.changedMark[b] = false
		c.vals[b] = power.Data[b]
	}
	c.recompute(power)
	return c.entropy, true
}

// rebuild resizes and refills every structure from scratch.
func (c *EntropyCache) rebuild(power *geom.Grid) {
	n := len(power.Data)
	if !c.valid || power.NX != c.nx || power.NY != c.ny {
		c.nx, c.ny = power.NX, power.NY
		c.vals = make([]float64, n)
		c.classOf = make([]int, n)
		c.changedMark = make([]bool, n)
		c.items = make([]item, 0, n)
		c.mergeBuf = make([]item, 0, n)
		c.buildCrossSums()
	}
	copy(c.vals, power.Data)
	items := c.items[:0]
	for i, v := range power.Data {
		items = append(items, item{v, i})
	}
	sort.Slice(items, func(a, b int) bool { return items[a].val < items[b].val })
	c.items = items
	c.recompute(power)
	c.valid = true
}

// buildCrossSums precomputes, per coordinate, the exact Manhattan distance
// sum against every bin of the grid (each x value occurs ny times, each y
// value nx times). Closed form, all integers.
func (c *EntropyCache) buildCrossSums() {
	nx, ny := c.nx, c.ny
	c.crossX = resizeF64(c.crossX, nx)
	c.crossY = resizeF64(c.crossY, ny)
	for x := 0; x < nx; x++ {
		// sum over x' in [0,nx) of |x-x'| = x(x+1)/2 + (nx-1-x)(nx-x)/2.
		s := x*(x+1)/2 + (nx-1-x)*(nx-x)/2
		c.crossX[x] = float64(ny) * float64(s)
	}
	for y := 0; y < ny; y++ {
		s := y*(y+1)/2 + (ny-1-y)*(ny-y)/2
		c.crossY[y] = float64(nx) * float64(s)
	}
}

// recompute re-derives the classification and the entropy from the
// maintained sort, with the exact arithmetic of the from-scratch path: the
// stop threshold comes from the grid's StdDev (bin order, like
// SpatialEntropy), the split re-runs nestedMeansSplit, and the Manhattan
// terms come from the per-class histograms.
func (c *EntropyCache) recompute(power *geom.Grid) {
	stop := entropyStopFrac * power.StdDev()
	nClasses := nestedMeansSplit(c.items, c.classOf, stop)
	c.entropy = c.entropyFromClasses(nClasses)
}

// entropyFromClasses evaluates Eq. 3 from the per-class coordinate
// histograms. Value-identical (bit for bit) to spatialEntropyFromClasses on
// the same classOf: every pairwise/cross Manhattan sum is an exact integer,
// and the final divisions and the class accumulation order match the
// sort-based path operation for operation.
func (c *EntropyCache) entropyFromClasses(nClasses int) float64 {
	nx, ny := c.nx, c.ny
	n := nx * ny
	total := float64(n)

	c.histX = resizeInt(c.histX, nClasses*nx)
	c.histY = resizeInt(c.histY, nClasses*ny)
	c.classCnt = resizeInt(c.classCnt, nClasses)
	for j := 0; j < ny; j++ {
		row := j * nx
		for i := 0; i < nx; i++ {
			cl := c.classOf[row+i]
			c.histX[cl*nx+i]++
			c.histY[cl*ny+j]++
			c.classCnt[cl]++
		}
	}

	S := 0.0
	for cl := 0; cl < nClasses; cl++ {
		cnt := c.classCnt[cl]
		hx := c.histX[cl*nx : (cl+1)*nx]
		hy := c.histY[cl*ny : (cl+1)*ny]
		size := float64(cnt)
		p := size / total
		shannon := -p * math.Log2(p)
		if shannon == 0 {
			continue
		}
		intraX := pairwiseAbsFromHist(hx)
		intraY := pairwiseAbsFromHist(hy)
		var dIntra float64
		if cnt >= 2 {
			pairs := size * float64(cnt-1) / 2
			dIntra = (intraX + intraY) / pairs
		}
		var dInter float64
		if nOther := n - cnt; nOther > 0 {
			crossAll := crossFromHist(hx, c.crossX) + crossFromHist(hy, c.crossY)
			withinPairs := 2 * (intraX + intraY) // ordered within-class pairs
			inter := crossAll - withinPairs
			dInter = inter / (size * float64(nOther))
		}
		if dIntra <= 0 {
			// Single-member (or co-located) class: cell pitch as distance.
			dIntra = 1
		}
		if dInter <= 0 {
			continue
		}
		S += (dIntra / dInter) * shannon
	}
	return S
}

// pairwiseAbsFromHist returns sum_{i<j} |v_i - v_j| over the coordinate
// multiset described by the histogram (hist[x] occurrences of value x).
// Exact: every intermediate is an integer below 2^53 for realistic grids.
func pairwiseAbsFromHist(hist []int) float64 {
	total, cumCnt, cumSum := 0.0, 0.0, 0.0
	for x, cnt := range hist {
		if cnt == 0 {
			continue
		}
		cx, fx := float64(cnt), float64(x)
		total += (fx*cumCnt - cumSum) * cx
		cumCnt += cx
		cumSum += fx * cx
	}
	return total
}

// crossFromHist returns the Manhattan distance sum between the class
// multiset and every bin of the grid, via the precomputed per-coordinate
// cross sums. Exact integers throughout.
func crossFromHist(hist []int, cross []float64) float64 {
	total := 0.0
	for x, cnt := range hist {
		if cnt != 0 {
			total += float64(cnt) * cross[x]
		}
	}
	return total
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// classes exposes the current classification for in-package tests.
func (c *EntropyCache) classes() []int { return c.classOf }
