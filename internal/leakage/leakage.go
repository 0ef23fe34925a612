// Package leakage implements the paper's thermal-leakage metrics:
//
//   - Pearson correlation of power and thermal maps per die (Eq. 1), the
//     steady-state leakage measure and the basis of the side-channel
//     vulnerability factor;
//   - correlation stability per grid bin over m activity samples (Eq. 2),
//     identifying the locations an attacker can model reliably;
//   - spatial entropy of power maps (Eq. 3, after Claramunt), with
//     nested-means classification and Manhattan inter-/intra-class
//     distances — the fast in-loop proxy used during floorplanning.
package leakage

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Pearson returns the correlation coefficient r_d between a power map and a
// thermal map of the same die (paper Eq. 1). The maps must share dimensions.
// Degenerate (constant) maps yield 0.
func Pearson(power, temp *geom.Grid) float64 {
	if power.NX != temp.NX || power.NY != temp.NY {
		panic(fmt.Sprintf("leakage: grid mismatch %dx%d vs %dx%d", power.NX, power.NY, temp.NX, temp.NY))
	}
	return pearsonSlices(power.Data, temp.Data)
}

func pearsonSlices(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da <= 0 || db <= 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// MaskedPearson returns the Pearson correlation restricted to the bins
// marked true in mask — the per-region leakage used when only particular
// (security-critical) modules are to be protected (the paper's Sec. 7.1
// adaptation). A mask with fewer than two selected bins yields 0.
func MaskedPearson(power, temp *geom.Grid, mask []bool) float64 {
	if power.NX != temp.NX || power.NY != temp.NY || len(mask) != len(power.Data) {
		panic("leakage: masked grids must share dimensions")
	}
	var a, b []float64
	for i := range mask {
		if mask[i] {
			a = append(a, power.Data[i])
			b = append(b, temp.Data[i])
		}
	}
	if len(a) < 2 {
		return 0
	}
	return pearsonSlices(a, b)
}

// StabilityMap computes the per-bin runtime correlation stability r_{d,x,y}
// (paper Eq. 2): for each bin, the Pearson correlation between its power and
// temperature readings across the m provided samples. powers[k] and temps[k]
// are the maps of sample k. Bins whose power or temperature never varies get
// stability 0 (nothing for an attacker to model there).
func StabilityMap(powers, temps []*geom.Grid) *geom.Grid {
	if len(powers) == 0 || len(powers) != len(temps) {
		panic("leakage: need equal, non-zero sample counts")
	}
	nx, ny := powers[0].NX, powers[0].NY
	m := len(powers)
	out := geom.NewGrid(nx, ny)
	pv := make([]float64, m)
	tv := make([]float64, m)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			for k := 0; k < m; k++ {
				pv[k] = powers[k].At(i, j)
				tv[k] = temps[k].At(i, j)
			}
			out.Set(i, j, pearsonSlices(pv, tv))
		}
	}
	return out
}

// MeanAbsStability summarizes a stability map as the mean absolute per-bin
// correlation — the paper's "average correlation" criterion for the dummy
// TSV insertion stop rule.
func MeanAbsStability(stab *geom.Grid) float64 {
	s := 0.0
	for _, v := range stab.Data {
		s += math.Abs(v)
	}
	return s / float64(len(stab.Data))
}

// MostStableBin returns the bin with the highest absolute stability,
// optionally excluding bins marked true in `exclude` (nil = none). Ties
// break toward the lower index for determinism.
func MostStableBin(stab *geom.Grid, exclude []bool) (i, j int, val float64) {
	best := -1.0
	bi, bj := 0, 0
	for jj := 0; jj < stab.NY; jj++ {
		for ii := 0; ii < stab.NX; ii++ {
			if exclude != nil && exclude[jj*stab.NX+ii] {
				continue
			}
			v := math.Abs(stab.At(ii, jj))
			if v > best {
				best, bi, bj = v, ii, jj
			}
		}
	}
	return bi, bj, best
}

// --- Spatial entropy (Eq. 3) -------------------------------------------------

// The nested-means classification bi-partitions a class until its standard
// deviation falls below entropyStopFrac of the whole map's ("until the
// standard deviation within any class approaches zero") or it sits
// entropyMaxDepth splits deep, so a map has at most 2^5 = 32 classes.
const (
	entropyMaxDepth = 5
	entropyStopFrac = 0.05
)

// ValidatePowerMap rejects power maps the entropy metrics cannot classify:
// nil or empty grids, grids whose Data does not match NX*NY, and maps
// containing non-finite values (these would corrupt the value sort and the
// class means without any error surfacing).
func ValidatePowerMap(power *geom.Grid) error {
	if power == nil {
		return fmt.Errorf("leakage: nil power map")
	}
	if power.NX <= 0 || power.NY <= 0 || len(power.Data) == 0 {
		return fmt.Errorf("leakage: empty power map (%dx%d, %d samples)", power.NX, power.NY, len(power.Data))
	}
	if len(power.Data) != power.NX*power.NY {
		return fmt.Errorf("leakage: power map has %d samples for %dx%d bins", len(power.Data), power.NX, power.NY)
	}
	for i, v := range power.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("leakage: power map bin %d holds non-finite value %v", i, v)
		}
	}
	return nil
}

// SpatialEntropy computes the spatial entropy S_d of a power map (paper
// Eq. 3): classes of similar power value from nested-means partitioning,
// each class weighted by its inter-/intra-class Manhattan distance ratio
// and its Shannon term. It panics on an invalid power map (see
// ValidatePowerMap), matching Pearson's grid-mismatch contract; NewEntropyCache
// serves the same value incrementally.
func SpatialEntropy(power *geom.Grid) float64 {
	return spatialEntropyFromClasses(power, NestedMeansClasses(power))
}

// NestedMeansClasses assigns each bin a class id via nested-means
// partitioning of the power values: values are recursively bi-partitioned at
// the current class mean until the within-class standard deviation
// approaches zero (or the depth bound is hit). Class ids are dense, starting
// at 0, ordered by ascending power. It panics on an invalid power map.
func NestedMeansClasses(power *geom.Grid) []int {
	if err := ValidatePowerMap(power); err != nil {
		panic(err.Error())
	}
	n := len(power.Data)
	stop := entropyStopFrac * power.StdDev()

	items := make([]item, n)
	for i, v := range power.Data {
		items[i] = item{v, i}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].val < items[b].val })

	classOf := make([]int, n)
	nestedMeansSplit(items, classOf, stop)
	return classOf
}

// nestedMeansSplit runs the recursive nested-means bi-partitioning over a
// value-sorted item slice, assigning dense class ids (ascending power) into
// classOf, indexed by bin. It returns the class count.
//
// The split decisions read only the value sequence, and a cut can never land
// inside a run of equal values (all of them compare to the mean the same
// way), so the resulting bin->class assignment is a pure function of the
// value multiset — any tie order in items yields the identical classOf. The
// EntropyCache relies on this to keep its incrementally maintained sort
// bit-compatible with the from-scratch sort here.
func nestedMeansSplit(items []item, classOf []int, stop float64) int {
	nextClass := 0
	var split func(lo, hi, depth int)
	split = func(lo, hi, depth int) {
		if hi-lo <= 1 || depth >= entropyMaxDepth || stdOf(items[lo:hi]) <= stop {
			for k := lo; k < hi; k++ {
				classOf[items[k].idx] = nextClass
			}
			nextClass++
			return
		}
		mean := 0.0
		for k := lo; k < hi; k++ {
			mean += items[k].val
		}
		mean /= float64(hi - lo)
		// Find the cut: first index with value > mean.
		cut := lo
		for cut < hi && items[cut].val <= mean {
			cut++
		}
		if cut == lo || cut == hi {
			// All values equal (or numerically so): one class.
			for k := lo; k < hi; k++ {
				classOf[items[k].idx] = nextClass
			}
			nextClass++
			return
		}
		split(lo, cut, depth+1)
		split(cut, hi, depth+1)
	}
	split(0, len(items), 0)
	return nextClass
}

type item struct {
	val float64
	idx int
}

func stdOf(items []item) float64 {
	n := float64(len(items))
	if n == 0 {
		return 0
	}
	mean := 0.0
	for _, it := range items {
		mean += it.val
	}
	mean /= n
	ss := 0.0
	for _, it := range items {
		d := it.val - mean
		ss += d * d
	}
	return math.Sqrt(ss / n)
}

// spatialEntropyFromClasses evaluates Eq. 3 given the class assignment.
func spatialEntropyFromClasses(power *geom.Grid, classOf []int) float64 {
	nx, ny := power.NX, power.NY
	total := float64(len(classOf))

	nClasses := 0
	for _, c := range classOf {
		if c+1 > nClasses {
			nClasses = c + 1
		}
	}
	// Collect coordinates per class.
	xs := make([][]float64, nClasses)
	ys := make([][]float64, nClasses)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := classOf[j*nx+i]
			xs[c] = append(xs[c], float64(i))
			ys[c] = append(ys[c], float64(j))
		}
	}
	// Precompute the sorted coordinate multisets of ALL bins once, with
	// prefix sums: every class's inter-class cross sum then costs
	// O(|class| log n) against them instead of re-sorting the full grid
	// per class. (These multisets are sorted by construction: each x value
	// appears ny times, each y value nx times.)
	n := len(classOf)
	sortedAllX := make([]float64, 0, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			sortedAllX = append(sortedAllX, float64(i))
		}
	}
	sortedAllY := make([]float64, 0, n)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			sortedAllY = append(sortedAllY, float64(j))
		}
	}
	prefX := prefixSums(sortedAllX)
	prefY := prefixSums(sortedAllY)

	S := 0.0
	for c := 0; c < nClasses; c++ {
		size := float64(len(xs[c]))
		if size == 0 {
			continue
		}
		p := size / total
		shannon := -p * math.Log2(p)
		if shannon == 0 {
			continue
		}
		dIntra := avgIntraManhattan(xs[c], ys[c])
		dInter := avgInterManhattanPre(xs[c], ys[c], sortedAllX, prefX, sortedAllY, prefY)
		if dIntra <= 0 {
			// Single-member (or co-located) class: treat the ratio as its
			// upper bound contribution using the cell pitch as distance.
			dIntra = 1
		}
		if dInter <= 0 {
			continue
		}
		// Note on the ratio's orientation: the paper's Eq. 3 prints
		// dinter/dintra, but Claramunt's two principles as quoted by the
		// paper ("the closer the similar entities, the lower the spatial
		// entropy") require the intra/inter orientation — similar entities
		// packed together shrink dIntra and must shrink the entropy. We
		// follow the principles (and Claramunt's original formulation);
		// with the printed orientation the locally-uniform power regimes
		// the paper optimizes for would *raise* S, contradicting its own
		// observed trend (Sec. 4.2: lower S -> lower correlation).
		S += (dIntra / dInter) * shannon
	}
	return S
}

// avgIntraManhattan returns the average pairwise Manhattan distance within a
// point set in O(n log n) by separating the x and y sums.
func avgIntraManhattan(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	pairs := float64(n) * float64(n-1) / 2
	return (sumPairwiseAbs(xs) + sumPairwiseAbs(ys)) / pairs
}

// sumPairwiseAbs returns sum_{i<j} |v_i - v_j| in O(n log n).
func sumPairwiseAbs(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	total, prefix := 0.0, 0.0
	for i, x := range s {
		total += x*float64(i) - prefix
		prefix += x
	}
	return total
}

// avgInterManhattanPre returns the average Manhattan distance between
// members of a class (cx, cy) and all *other* bins, given the pre-sorted
// coordinate multisets of every bin and their prefix sums. Cost is
// O(|class| log n) — the class members are looked up against the shared
// sorted arrays instead of re-sorting the grid per class.
func avgInterManhattanPre(cx, cy, sortedAllX, prefX, sortedAllY, prefY []float64) float64 {
	nC := len(cx)
	nAll := len(sortedAllX)
	nOther := nAll - nC
	if nC == 0 || nOther <= 0 {
		return 0
	}
	// sum over (a in class, b in all) - sum over (a in class, b in class).
	crossAll := sumCrossAbsSorted(cx, sortedAllX, prefX) + sumCrossAbsSorted(cy, sortedAllY, prefY)
	withinPairs := 2 * (sumPairwiseAbs(cx) + sumPairwiseAbs(cy)) // ordered pairs
	inter := crossAll - withinPairs
	return inter / (float64(nC) * float64(nOther))
}

// sumCrossAbsSorted returns sum over a in A, b in B of |a - b|, where B is
// already sorted and prefixB holds its prefix sums (prefixB[k] = sum of the
// first k elements). O(|A| log |B|).
func sumCrossAbsSorted(A, sortedB, prefixB []float64) float64 {
	nB := len(sortedB)
	sumB := prefixB[nB]
	total := 0.0
	for _, x := range A {
		// Number of b's < x (ties split either way: |x - b| is 0 at ties).
		k := sort.SearchFloat64s(sortedB, x)
		left := float64(k)*x - prefixB[k]
		right := (sumB - prefixB[k]) - float64(nB-k)*x
		total += left + right
	}
	return total
}

// prefixSums returns p with p[k] = sum of the first k elements.
func prefixSums(v []float64) []float64 {
	p := make([]float64, len(v)+1)
	for i, x := range v {
		p[i+1] = p[i] + x
	}
	return p
}
