// Package floorplan implements the 3D floorplan representation and layout
// generation used by the annealer: per-die corner sequences packed by a
// skyline (corner-step) packer, soft-module reshaping, die reassignment, and
// the derived layout queries (power maps, wirelength, outline violation).
//
// Corblivar, the floorplanner the paper extends, encodes each die as a
// corner block list (sequence + insertion direction + junction count). We
// implement the same packing class in simplified form: each die holds an
// ordered module sequence and a per-module insertion preference; layout
// generation walks the sequence and drops each module at the skyline corner
// chosen by that preference (lowest-first or leftmost-first). Packings are
// overlap-free by construction; only fixed-outline violations can occur,
// and those are handled by the annealing cost.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// InsertDir selects the skyline corner used when a module is placed.
type InsertDir uint8

const (
	// LowestFirst drops the module at the lowest available corner
	// (ties broken left), growing the packing bottom-up.
	LowestFirst InsertDir = iota
	// LeftmostFirst drops the module at the leftmost available corner
	// (ties broken low), growing the packing left-to-right.
	LeftmostFirst
)

// Floorplan is a mutable 3D floorplan state: a die assignment plus per-die
// packing sequences, with per-module rotation, aspect and insertion
// direction. Construct with New or NewRandom.
//
// The design is immutable once a floorplan holds it: every footprint change
// (rotation, soft-module reshaping) lives in the floorplan's own state and
// is applied by footprint, never written back to the modules. Clone and
// CopyFrom rely on this and share the design instead of copying it.
type Floorplan struct {
	Design *netlist.Design

	// seq[d] is the packing order of module indices on die d.
	seq [][]int
	// dir[m] is module m's insertion preference.
	dir []InsertDir
	// rot[m] marks module m as rotated relative to its design footprint.
	rot []bool
	// aspect[m] is the soft-module aspect ratio (W/H); hard modules keep 0.
	aspect []float64
}

// New builds a floorplan with modules dealt round-robin across dies in index
// order. The design is cloned; the caller's design is never mutated.
func New(des *netlist.Design) *Floorplan {
	fp := &Floorplan{Design: des.Clone()}
	fp.seq = make([][]int, fp.Design.Dies)
	fp.dir = make([]InsertDir, len(fp.Design.Modules))
	fp.rot = make([]bool, len(fp.Design.Modules))
	fp.aspect = make([]float64, len(fp.Design.Modules))
	for i, m := range fp.Design.Modules {
		d := i % fp.Design.Dies
		fp.seq[d] = append(fp.seq[d], i)
		if m.Kind == netlist.Soft {
			fp.aspect[i] = m.W / m.H
		}
	}
	return fp
}

// NewRandom builds a floorplan with random die assignment, sequence order,
// directions, and soft aspect ratios.
func NewRandom(des *netlist.Design, rng *rand.Rand) *Floorplan {
	fp := New(des)
	n := len(fp.Design.Modules)
	// Re-deal the dies randomly but balanced by area: shuffle then alternate.
	order := rng.Perm(n)
	for d := range fp.seq {
		fp.seq[d] = fp.seq[d][:0]
	}
	for k, mi := range order {
		fp.seq[k%fp.Design.Dies] = append(fp.seq[k%fp.Design.Dies], mi)
	}
	for i, m := range fp.Design.Modules {
		if rng.Intn(2) == 0 {
			fp.dir[i] = LeftmostFirst
		}
		if m.Kind == netlist.Soft {
			fp.aspect[i] = clamp(0.5+rng.Float64()*1.5, m.MinAspect, m.MaxAspect)
		}
	}
	return fp
}

// Clone returns an independent copy of the floorplan state. The copy shares
// the (immutable) design.
func (fp *Floorplan) Clone() *Floorplan {
	c := &Floorplan{}
	c.CopyFrom(fp)
	return c
}

// CopyFrom overwrites fp with src's state, reusing fp's storage: once fp
// has held a state of src's shape, the copy allocates nothing. fp then
// shares src's (immutable) design. The annealing loop snapshots every new
// best state this way.
func (fp *Floorplan) CopyFrom(src *Floorplan) {
	fp.Design = src.Design
	if len(fp.seq) != len(src.seq) {
		fp.seq = make([][]int, len(src.seq))
	}
	for d := range src.seq {
		fp.seq[d] = append(fp.seq[d][:0], src.seq[d]...)
	}
	fp.dir = append(fp.dir[:0], src.dir...)
	fp.rot = append(fp.rot[:0], src.rot...)
	fp.aspect = append(fp.aspect[:0], src.aspect...)
}

// DieOf returns the die index currently holding module mi, or -1.
func (fp *Floorplan) DieOf(mi int) int {
	for d, s := range fp.seq {
		for _, m := range s {
			if m == mi {
				return d
			}
		}
	}
	return -1
}

// footprint returns the module's effective W, H after aspect and rotation.
func (fp *Floorplan) footprint(mi int) (float64, float64) {
	m := fp.Design.Modules[mi]
	w, h := m.W, m.H
	if m.Kind == netlist.Soft && fp.aspect[mi] > 0 {
		area := m.Area()
		h = math.Sqrt(area / fp.aspect[mi])
		w = area / h
	}
	if fp.rot[mi] {
		w, h = h, w
	}
	return w, h
}

// Layout is the packed physical result of a floorplan.
type Layout struct {
	Design *netlist.Design

	// Rects[m] is module m's placed footprint on its die.
	Rects []geom.Rect
	// DieOf[m] is module m's die (0 = bottom, closest to package;
	// Dies-1 = top, closest to the heatsink).
	DieOf []int

	OutlineW, OutlineH float64
	Dies               int
}

// Pack generates the physical layout by walking each die's sequence through
// the skyline packer. The result is always overlap-free; modules may exceed
// the fixed outline (cost term) but never overlap each other.
func (fp *Floorplan) Pack() *Layout {
	l := &Layout{
		Design:   fp.Design,
		Rects:    make([]geom.Rect, len(fp.Design.Modules)),
		DieOf:    make([]int, len(fp.Design.Modules)),
		OutlineW: fp.Design.OutlineW,
		OutlineH: fp.Design.OutlineH,
		Dies:     fp.Design.Dies,
	}
	for d := range fp.seq {
		fp.PackDie(l, d)
	}
	return l
}

// PackDie repacks a single die's sequence into an existing layout in place,
// overwriting the Rects and DieOf entries of the modules currently sequenced
// on that die. A die's packing depends only on its own sequence state, so
// repacking exactly the dies named by a Move's Dies list (after the move, or
// after its undo) restores the layout a full Pack would produce — module by
// module, bit for bit. The incremental cost evaluator repacks through
// PackDieFromDiff, which adds prefix resume and an exact placement diff.
//
// Callers repacking after a cross-die move must repack every die the move
// touched; a module that left die d is only re-homed when its new die packs.
func (fp *Floorplan) PackDie(l *Layout, d int) {
	sky := newSkyline(fp.Design.OutlineW)
	for _, mi := range fp.seq[d] {
		w, h := fp.footprint(mi)
		x, y := sky.place(w, h, fp.dir[mi])
		l.Rects[mi] = geom.Rect{X: x, Y: y, W: w, H: h}
		l.DieOf[mi] = d
	}
}

// rowStride is the spacing, in sequence positions, of a DiePacker's
// snapshot rows. A repack resumes from the last row at or before its first
// changed position and re-places the fewer than rowStride positions in
// between, which reproduce their placements unchanged. Keeping every 8th
// skyline instead of every one stores an eighth of the rows of a large die
// (ibm01 holds ~455 positions per die) for at most 7 extra placements per
// repack.
const rowStride = 8

// DiePacker caches one die's skyline states between repacks so a repack can
// resume near the first changed sequence position instead of position 0. A
// placement depends only on the sequence prefix before it, so replaying from
// a snapshot taken before the first change reproduces the full repack bit
// for bit while skipping the untouched prefix. The zero value holds no rows,
// so its first repack starts at position 0.
type DiePacker struct {
	// Row r snapshots the skyline steps before placing sequence position
	// r*rowStride of the last-packed sequence, for every such position up
	// to its length n (position n being the state after the final
	// placement): xs[off[r]:off[r+1]] and ys[off[r]:off[r+1]]. Row 0 is
	// the empty skyline. The rows live in the two flat arenas xs and ys,
	// so a warmed packer snapshots without allocating.
	xs, ys []float64
	off    []int   // row offsets into xs/ys; empty or rows+1 long, off[0] == 0
	n      int     // length of the last-packed sequence; 0 for the zero value
	sky    skyline // reusable working skyline
}

// snapshot appends a copy of the working skyline as the next row.
func (dp *DiePacker) snapshot() {
	dp.xs = append(dp.xs, dp.sky.xs...)
	dp.ys = append(dp.ys, dp.sky.ys...)
	dp.off = append(dp.off, len(dp.xs))
}

// PackDiff records the exact effect of one PackDieFromDiff call: the modules
// whose placement actually changed (with their pre-move values), how much of
// the sequence was replayed, and the packer-state journal needed to undo the
// call byte-exactly. Exactly one of Commit or Rollback must be called before
// the record is reused; Reset clears it for the next move. The record keeps
// its storage across Resets, so a reused record journals without allocating.
type PackDiff struct {
	// Die is the repacked die.
	Die int
	// Changed lists the modules whose placed rect or die assignment changed,
	// in replay order; OldRects/OldDies hold their pre-move placements.
	// Replayed modules that reproduce their previous placement verbatim are
	// not listed.
	Changed  []int
	OldRects []geom.Rect
	OldDies  []int
	// From is the first position the call may have changed and SeqLen the
	// new sequence length: the call recomputed positions [From, SeqLen).
	// The replay itself starts at the snapshot row at or before From.
	From, SeqLen int

	// Rollback record: the packer's length and copies of its snapshot rows
	// [row:] displaced by the replay (arena data and row end offsets).
	dp           *DiePacker
	row, oldN    int
	oldXs, oldYs []float64
	oldOff       []int
	settled      bool // Commit or Rollback already ran
}

// Reset clears the record for reuse, retaining storage.
func (pd *PackDiff) Reset() {
	pd.Changed = pd.Changed[:0]
	pd.OldRects = pd.OldRects[:0]
	pd.OldDies = pd.OldDies[:0]
	pd.oldXs = pd.oldXs[:0]
	pd.oldYs = pd.oldYs[:0]
	pd.oldOff = pd.oldOff[:0]
	pd.dp = nil
	pd.settled = false
}

// PackDieFromDiff repacks die d into the layout like PackDie, resuming from
// the packer's last snapshot row at or before sequence position `from`
// (clamped to the sequence dp last packed) and replaying to the die's end.
// Placements before the resume point are untouched — they are already
// correct in l. pd.Changed lists precisely the modules whose (x, y, w, h)
// or die assignment differs from before the call; replayed positions that
// reproduce their previous placement verbatim are not reported.
//
// The displaced snapshot rows are journaled in pd: pd.Rollback restores the
// packer AND the layout's changed placements byte-exactly (the
// rejected-move path), pd.Commit settles the record (the accepted-move
// path). pd must be Reset (or zero) on entry.
func (fp *Floorplan) PackDieFromDiff(l *Layout, d, from int, dp *DiePacker, pd *PackDiff) {
	seq := fp.seq[d]
	from = min(from, len(seq), dp.n)
	row := from / rowStride // held: dp last packed positions [0, dp.n]
	pd.Die, pd.From, pd.SeqLen = d, from, len(seq)
	pd.dp, pd.row, pd.oldN = dp, row, dp.n

	sky := &dp.sky
	sky.width = fp.Design.OutlineW
	if row == 0 {
		sky.xs = append(sky.xs[:0], 0)
		sky.ys = append(sky.ys[:0], 0)
	} else {
		lo, hi := dp.off[row], dp.off[row+1]
		sky.xs = append(sky.xs[:0], dp.xs[lo:hi]...)
		sky.ys = append(sky.ys[:0], dp.ys[lo:hi]...)
	}
	if len(dp.off) == 0 {
		dp.off = append(dp.off, 0)
	}
	base := dp.off[row]
	pd.oldXs = append(pd.oldXs, dp.xs[base:]...)
	pd.oldYs = append(pd.oldYs, dp.ys[base:]...)
	pd.oldOff = append(pd.oldOff, dp.off[row+1:]...)
	dp.xs, dp.ys, dp.off, dp.n = dp.xs[:base], dp.ys[:base], dp.off[:row+1], len(seq)
	for p := row * rowStride; p < len(seq); p++ {
		if p%rowStride == 0 {
			dp.snapshot()
		}
		mi := seq[p]
		w, h := fp.footprint(mi)
		x, y := sky.place(w, h, fp.dir[mi])
		r := geom.Rect{X: x, Y: y, W: w, H: h}
		if l.Rects[mi] != r || l.DieOf[mi] != d {
			pd.Changed = append(pd.Changed, mi)
			pd.OldRects = append(pd.OldRects, l.Rects[mi])
			pd.OldDies = append(pd.OldDies, l.DieOf[mi])
			l.Rects[mi] = r
			l.DieOf[mi] = d
		}
	}
	if len(seq)%rowStride == 0 {
		dp.snapshot() // state after the last placement
	}
}

// Commit settles a PackDiff on the accepted-move path: the replayed rows
// stay in the packer and the journal is dropped. Idempotent with Rollback:
// the first of the two settles the record.
func (pd *PackDiff) Commit() {
	pd.settled = true
}

// Rollback undoes a PackDieFromDiff call byte-exactly: the layout entries of
// pd.Changed revert to their pre-move values and the packer's displaced
// snapshot rows are reinstated, so the next repack resumes from the same
// state as if the move never happened. Call after the floorplan's own undo
// closure has restored the sequences.
func (pd *PackDiff) Rollback(l *Layout) {
	if pd.settled || pd.dp == nil {
		return
	}
	pd.settled = true
	for k, m := range pd.Changed {
		l.Rects[m] = pd.OldRects[k]
		l.DieOf[m] = pd.OldDies[k]
	}
	dp := pd.dp
	base := dp.off[pd.row]
	dp.xs = append(dp.xs[:base], pd.oldXs...)
	dp.ys = append(dp.ys[:base], pd.oldYs...)
	dp.off = append(dp.off[:pd.row+1], pd.oldOff...)
	dp.n = pd.oldN
}

// skyline tracks the upper contour of a packing as a list of steps.
type skyline struct {
	width float64
	xs    []float64 // step start positions, xs[0] == 0, ascending
	ys    []float64 // step heights, ys[i] spans [xs[i], xs[i+1]) (last to width)

	// commit scratch, reused across placements to keep packing allocation-lean.
	sxs, sys []float64
}

func newSkyline(width float64) *skyline {
	return &skyline{width: width, xs: []float64{0}, ys: []float64{0}}
}

// end returns the x where step i ends.
func (s *skyline) end(i int) float64 {
	if i+1 < len(s.xs) {
		return s.xs[i+1]
	}
	return s.width
}

// spanHeight returns the max height over [x, x+w). The first relevant step
// is located by binary search over the ascending step starts, so a span
// query costs O(log k + steps covered) instead of a full scan.
func (s *skyline) spanHeight(x, w float64) float64 {
	h := 0.0
	i := sort.SearchFloat64s(s.xs, x)
	if i > 0 && s.end(i-1) > x {
		i--
	}
	for ; i < len(s.xs); i++ {
		if s.end(i) <= x {
			continue
		}
		if s.xs[i] >= x+w {
			break
		}
		if s.ys[i] > h {
			h = s.ys[i]
		}
	}
	return h
}

// place finds a corner for a w x h module per the direction preference,
// commits it to the skyline, and returns the lower-left position. The
// candidates are the fitting step starts, scanned left to right; the first
// is the running best and each later one replaces it when better.
func (s *skyline) place(w, h float64, dir InsertDir) (float64, float64) {
	bx, by, found := 0.0, 0.0, false
	for _, x := range s.xs {
		if x+w > s.width+1e-9 {
			continue
		}
		y := s.spanHeight(x, w)
		if !found || better(x, y, bx, by, dir) {
			bx, by, found = x, y, true
		}
	}
	if !found {
		// Module wider than the outline or no fitting corner: clamp left.
		bx, by = 0, s.spanHeight(0, math.Min(w, s.width))
	}
	s.commit(bx, w, by+h)
	return bx, by
}

func better(x, y, bx, by float64, dir InsertDir) bool {
	switch dir {
	case LeftmostFirst:
		//lint:floateq deterministic tie-break: candidates at the exact same coordinate fall through to the secondary key
		if x != bx {
			return x < bx
		}
		return y < by
	default: // LowestFirst
		//lint:floateq deterministic tie-break: candidates at the exact same coordinate fall through to the secondary key
		if y != by {
			return y < by
		}
		return x < bx
	}
}

// commit raises the skyline over [x, x+w) to newY.
func (s *skyline) commit(x, w, newY float64) {
	x1 := x + w
	nxs, nys := s.sxs[:0], s.sys[:0]
	// Preserve steps before x.
	for i := range s.xs {
		if s.xs[i] >= x {
			break
		}
		end := s.end(i)
		nxs = append(nxs, s.xs[i])
		nys = append(nys, s.ys[i])
		if end > x {
			// This step straddles x; the part beyond x is replaced below.
			break
		}
	}
	// New raised step.
	nxs = append(nxs, x)
	nys = append(nys, newY)
	// Preserve steps after x1, splitting any straddler.
	for i := range s.xs {
		end := s.end(i)
		if end <= x1 {
			continue
		}
		start := math.Max(s.xs[i], x1)
		if start < end {
			nxs = append(nxs, start)
			nys = append(nys, s.ys[i])
		}
	}
	// Merge duplicate x positions and equal-height neighbours.
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	for i := range nxs {
		if len(s.xs) > 0 {
			lastX := s.xs[len(s.xs)-1]
			lastY := s.ys[len(s.ys)-1]
			if nxs[i] <= lastX+1e-12 {
				// Same start: keep the later (overriding) value.
				s.ys[len(s.ys)-1] = nys[i]
				continue
			}
			//lint:floateq merging only bit-equal neighbour heights is conservative; unequal heights keep their step
			if nys[i] == lastY {
				continue
			}
		}
		s.xs = append(s.xs, nxs[i])
		s.ys = append(s.ys, nys[i])
	}
	if len(s.xs) == 0 || s.xs[0] != 0 {
		s.xs = append([]float64{0}, s.xs...)
		s.ys = append([]float64{0}, s.ys...)
	}
	s.sxs, s.sys = nxs, nys // keep the grown scratch for the next commit
}

// --- Layout queries ---------------------------------------------------------

// Outline returns the fixed per-die outline rectangle.
func (l *Layout) Outline() geom.Rect {
	return geom.Rect{X: 0, Y: 0, W: l.OutlineW, H: l.OutlineH}
}

// OutlineViolation returns the total area (um^2) by which modules exceed the
// fixed outline, summed over dies. Zero means the floorplan is legal.
func (l *Layout) OutlineViolation() float64 {
	out := l.Outline()
	v := 0.0
	for _, r := range l.Rects {
		v += r.Area() - r.OverlapArea(out)
	}
	return v
}

// Legal reports whether every module lies within the fixed outline.
func (l *Layout) Legal() bool { return l.OutlineViolation() <= 1e-6 }

// OverlapArea returns the total pairwise overlap area between modules that
// share a die. The skyline packer produces zero by construction; this is a
// verification hook.
func (l *Layout) OverlapArea() float64 {
	byDie := make([][]int, l.Dies)
	for mi, d := range l.DieOf {
		byDie[d] = append(byDie[d], mi)
	}
	total := 0.0
	for _, mods := range byDie {
		for a := 0; a < len(mods); a++ {
			for b := a + 1; b < len(mods); b++ {
				total += l.Rects[mods[a]].OverlapArea(l.Rects[mods[b]])
			}
		}
	}
	return total
}

// HPWL returns the total half-perimeter wirelength over all nets in um.
// Pins are taken at module centers and terminal positions; a net spanning
// both dies adds the configured via detour vertLen (use 0 to ignore).
func (l *Layout) HPWL(vertLen float64) float64 {
	total := 0.0
	for _, n := range l.Design.Nets {
		total += l.NetHPWL(n, vertLen)
	}
	return total
}

// NetHPWL returns one net's half-perimeter wirelength in um.
func (l *Layout) NetHPWL(n *netlist.Net, vertLen float64) float64 {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	spansDies := false
	die0 := -1
	add := func(x, y float64) {
		minX = math.Min(minX, x)
		minY = math.Min(minY, y)
		maxX = math.Max(maxX, x)
		maxY = math.Max(maxY, y)
	}
	for _, mi := range n.Modules {
		c := l.Rects[mi].Center()
		add(c.X, c.Y)
		if die0 == -1 {
			die0 = l.DieOf[mi]
		} else if l.DieOf[mi] != die0 {
			spansDies = true
		}
	}
	for _, ti := range n.Terminals {
		t := l.Design.Terminals[ti]
		add(t.X, t.Y)
	}
	if math.IsInf(minX, 1) {
		return 0
	}
	wl := (maxX - minX) + (maxY - minY)
	if spansDies {
		wl += vertLen
	}
	return wl
}

// CrossDieNets returns the indices of nets whose module pins span more than
// one die (each needs at least one signal TSV).
func (l *Layout) CrossDieNets() []int {
	var out []int
	for ni, n := range l.Design.Nets {
		die0 := -1
		for _, mi := range n.Modules {
			if die0 == -1 {
				die0 = l.DieOf[mi]
			} else if l.DieOf[mi] != die0 {
				out = append(out, ni)
				break
			}
		}
	}
	return out
}

// PowerMap rasterizes the given per-module powers (Watts) onto an nx x ny
// grid for die d; cell values are Watts (density = value / cellArea).
func (l *Layout) PowerMap(d, nx, ny int, powers []float64) *geom.Grid {
	return l.PowerMapInto(d, powers, geom.NewGrid(nx, ny))
}

// PowerMapInto is PowerMap rasterizing into g (cleared first), reusing its
// storage instead of allocating. The rasterization order is PowerMap's, so
// the cell values are bit-identical — the incremental evaluator rebuilds
// dirty-die maps through this to stay exactly on the full path's floats
// (an additive patch would accumulate round-off, which the discontinuous
// nested-means entropy classification can amplify past any epsilon).
func (l *Layout) PowerMapInto(d int, powers []float64, g *geom.Grid) *geom.Grid {
	for i := range g.Data {
		g.Data[i] = 0
	}
	out := l.Outline()
	for mi, r := range l.Rects {
		if l.DieOf[mi] != d {
			continue
		}
		g.RasterizeDensity(out, r, powers[mi])
	}
	return g
}

// NominalPowers returns the design's nominal per-module powers in Watts.
func (l *Layout) NominalPowers() []float64 {
	p := make([]float64, len(l.Design.Modules))
	for i, m := range l.Design.Modules {
		p[i] = m.Power
	}
	return p
}

// ModulesOnDie returns the module indices placed on die d, sorted.
func (l *Layout) ModulesOnDie(d int) []int {
	var out []int
	for mi, dd := range l.DieOf {
		if dd == d {
			out = append(out, mi)
		}
	}
	sort.Ints(out)
	return out
}

// AdjacencyScratch recycles the working memory of AdjacentModulesInto
// across calls. The zero value is ready to use; the returned adjacency
// aliases the scratch and is overwritten by the next call with the same
// scratch.
type AdjacencyScratch struct {
	byDie [][]int
	pairs [][2]int
	deg   []int
	flat  []int
	rows  [][]int
}

// AdjacentModulesInto returns, for each module, the modules whose placed
// rectangles abut or overlap it — on the same die, or vertically on a
// neighbouring die (footprint overlap). This drives voltage-volume growth,
// and the voltage engine re-sweeps it on every refresh, so the rows are
// written into a reusable scratch.
//
// Candidate pairs come from an X-interval sweep per die (and per die pair)
// instead of the all-pairs scan: two rects can only be adjacent when their
// X intervals overlap or touch, so each module is tested only against the
// modules whose interval starts before its own ends. The collected pairs
// are ordered exactly as the all-pairs scan would order them, keeping the
// voltage-volume growth (which is sensitive to neighbour order) identical.
func (l *Layout) AdjacentModulesInto(s *AdjacencyScratch) [][]int {
	n := len(l.Rects)
	if cap(s.byDie) < l.Dies {
		s.byDie = make([][]int, l.Dies)
	}
	byDie := s.byDie[:l.Dies]
	for d := range byDie {
		byDie[d] = byDie[d][:0]
	}
	for mi, d := range l.DieOf {
		byDie[d] = append(byDie[d], mi)
	}
	s.byDie = byDie
	// Sort each die's population by X once, in place (the lists are rebuilt
	// above on every call, so the previous call's order never leaks in).
	for d := range byDie {
		mods := byDie[d]
		sort.Slice(mods, func(i, j int) bool { return l.Rects[mods[i]].X < l.Rects[mods[j]].X })
	}
	// margin exceeds Adjacent's relative tolerance at any realistic die
	// coordinate, so the sweep never prunes a pair Adjacent would accept.
	const margin = 1e-3
	pairs := s.pairs[:0]
	record := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, [2]int{a, b})
	}
	for d := 0; d < l.Dies; d++ {
		order := byDie[d]
		for i, a := range order {
			ra := l.Rects[a]
			maxX := ra.MaxX() + margin
			maxY := ra.MaxY() + margin
			for _, b := range order[i+1:] {
				rb := l.Rects[b]
				if rb.X > maxX {
					break
				}
				// Y pre-filter, same margin argument as the X window:
				// disjoint-beyond-margin Y spans can neither overlap nor
				// abut, so Adjacent cannot accept the pair.
				if rb.Y > maxY || ra.Y > rb.MaxY()+margin {
					continue
				}
				if ra.Adjacent(rb) {
					record(a, b)
				}
			}
		}
		// Vertical adjacency against the die above.
		if d+1 >= l.Dies {
			continue
		}
		above := byDie[d+1]
		for _, a := range order {
			ra := l.Rects[a]
			for _, b := range above {
				rb := l.Rects[b]
				if rb.X >= ra.MaxX() {
					break
				}
				if rb.MaxX() <= ra.X {
					continue
				}
				// Footprint overlap needs open Y-interval overlap too.
				if rb.Y >= ra.MaxY() || ra.Y >= rb.MaxY() {
					continue
				}
				if ra.OverlapArea(rb) > 0 {
					record(a, b)
				}
			}
		}
	}
	// Emit in the all-pairs order: ascending (a, b).
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	s.pairs = pairs
	// Carve the rows out of one flat backing array sized by degree, filling
	// in pair order — the same per-row neighbour order the historical
	// append-per-pair emission produced.
	if cap(s.deg) < n {
		s.deg = make([]int, n)
		s.rows = make([][]int, n)
	}
	deg := s.deg[:n]
	for i := range deg {
		deg[i] = 0
	}
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	if cap(s.flat) < 2*len(pairs) {
		s.flat = make([]int, 2*len(pairs))
	}
	flat := s.flat[:2*len(pairs)]
	rows := s.rows[:n]
	off := 0
	for m := 0; m < n; m++ {
		rows[m] = flat[off : off : off+deg[m]]
		off += deg[m]
	}
	for _, p := range pairs {
		rows[p[0]] = append(rows[p[0]], p[1])
		rows[p[1]] = append(rows[p[1]], p[0])
	}
	return rows
}

// Clone returns a deep copy of the layout sharing the design.
func (l *Layout) Clone() *Layout {
	c := *l
	c.Rects = append([]geom.Rect(nil), l.Rects...)
	c.DieOf = append([]int(nil), l.DieOf...)
	return &c
}

func (l *Layout) String() string {
	return fmt.Sprintf("Layout(%s: %d modules, %d dies, %.0fx%.0f um)",
		l.Design.Name, len(l.Rects), l.Dies, l.OutlineW, l.OutlineH)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
