package floorplan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
)

func tinyDesign() *netlist.Design {
	return &netlist.Design{
		Name: "tiny",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 20, H: 10, Power: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 2},
			{Name: "c", Kind: netlist.Soft, W: 15, H: 15, MinAspect: 0.5, MaxAspect: 2, Power: 0.5},
			{Name: "d", Kind: netlist.Soft, W: 10, H: 20, MinAspect: 0.25, MaxAspect: 4, Power: 0.25},
		},
		Nets: []*netlist.Net{
			{Name: "n0", Modules: []int{0, 1}},
			{Name: "n1", Modules: []int{1, 2, 3}},
			{Name: "n2", Modules: []int{0, 3}, Terminals: []int{0}},
		},
		Terminals: []*netlist.Terminal{{Name: "t0", X: 0, Y: 25}},
		OutlineW:  60, OutlineH: 60, Dies: 2,
	}
}

func TestPackNoOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		fp := NewRandom(tinyDesign(), rng)
		l := fp.Pack()
		if ov := l.OverlapArea(); ov > 1e-9 {
			t.Fatalf("trial %d: overlap %v", trial, ov)
		}
	}
}

func TestPackNoOverlapAfterPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fp := NewRandom(tinyDesign(), rng)
	for i := 0; i < 500; i++ {
		fp.Perturb(rng)
		if !fp.CheckInvariants() {
			t.Fatalf("iteration %d: invariants broken", i)
		}
		l := fp.Pack()
		if ov := l.OverlapArea(); ov > 1e-9 {
			t.Fatalf("iteration %d: overlap %v", i, ov)
		}
	}
}

func TestUndoRestoresState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fp := NewRandom(tinyDesign(), rng)
	before := fp.Pack()
	for i := 0; i < 200; i++ {
		_, undo := fp.Perturb(rng)
		undo()
		after := fp.Pack()
		for mi := range before.Rects {
			if before.Rects[mi] != after.Rects[mi] || before.DieOf[mi] != after.DieOf[mi] {
				t.Fatalf("iteration %d: undo failed for module %d: %+v vs %+v",
					i, mi, before.Rects[mi], after.Rects[mi])
			}
		}
	}
}

func TestPackDeterministic(t *testing.T) {
	fp := NewRandom(tinyDesign(), rand.New(rand.NewSource(7)))
	a := fp.Pack()
	b := fp.Pack()
	for mi := range a.Rects {
		if a.Rects[mi] != b.Rects[mi] {
			t.Fatalf("module %d: %+v vs %+v", mi, a.Rects[mi], b.Rects[mi])
		}
	}
}

func TestDieOf(t *testing.T) {
	fp := New(tinyDesign())
	l := fp.Pack()
	for mi := range l.Rects {
		if fp.DieOf(mi) != l.DieOf[mi] {
			t.Fatalf("module %d die mismatch", mi)
		}
	}
	if fp.DieOf(99) != -1 {
		t.Fatal("missing module should report -1")
	}
}

func TestModulesAtOriginDie(t *testing.T) {
	fp := New(tinyDesign())
	l := fp.Pack()
	// Round-robin: modules 0, 2 on die 0; modules 1, 3 on die 1.
	if l.DieOf[0] != 0 || l.DieOf[2] != 0 || l.DieOf[1] != 1 || l.DieOf[3] != 1 {
		t.Fatalf("die assignment %v", l.DieOf)
	}
}

func TestOutlineViolationZeroWhenFits(t *testing.T) {
	fp := New(tinyDesign())
	l := fp.Pack()
	if !l.Legal() {
		t.Fatalf("tiny design should fit 60x60 outline; violation %v", l.OutlineViolation())
	}
}

func TestOutlineViolationDetected(t *testing.T) {
	d := tinyDesign()
	d.OutlineW, d.OutlineH = 18, 18 // too small for the 20x10 hard module
	fp := New(d)
	l := fp.Pack()
	if l.Legal() {
		t.Fatal("expected outline violation")
	}
	if l.OutlineViolation() <= 0 {
		t.Fatal("violation must be positive")
	}
}

func TestHPWLPositiveAndMonotonicWithVertLen(t *testing.T) {
	fp := New(tinyDesign())
	l := fp.Pack()
	w0 := l.HPWL(0)
	w1 := l.HPWL(100)
	if w0 <= 0 {
		t.Fatal("HPWL must be positive")
	}
	if w1 < w0 {
		t.Fatal("via detour must not reduce HPWL")
	}
}

func TestNetHPWLSingleDie(t *testing.T) {
	d := tinyDesign()
	d.Dies = 1
	fp := New(d)
	l := fp.Pack()
	// n0 connects modules 0 and 1 on the same die: HPWL = bbox of centers.
	c0, c1 := l.Rects[0].Center(), l.Rects[1].Center()
	want := math.Abs(c0.X-c1.X) + math.Abs(c0.Y-c1.Y)
	if got := l.NetHPWL(d.Nets[0], 50); math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCrossDieNets(t *testing.T) {
	fp := New(tinyDesign()) // round robin: 0,2 vs 1,3
	l := fp.Pack()
	cross := l.CrossDieNets()
	// n0 (0,1): cross. n1 (1,2,3): cross. n2 (0,3): cross.
	if len(cross) != 3 {
		t.Fatalf("cross-die nets = %v", cross)
	}
}

func TestPowerMapConservesPower(t *testing.T) {
	fp := New(tinyDesign())
	l := fp.Pack()
	p := l.NominalPowers()
	total := 0.0
	for d := 0; d < l.Dies; d++ {
		g := l.PowerMap(d, 16, 16, p)
		total += g.Sum()
	}
	if math.Abs(total-3.75) > 1e-9 {
		t.Fatalf("power maps sum to %v, want 3.75", total)
	}
}

func TestModulesOnDie(t *testing.T) {
	fp := New(tinyDesign())
	l := fp.Pack()
	d0 := l.ModulesOnDie(0)
	if len(d0) != 2 || d0[0] != 0 || d0[1] != 2 {
		t.Fatalf("die 0 modules %v", d0)
	}
}

func TestAdjacentModulesSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fp := NewRandom(tinyDesign(), rng)
	l := fp.Pack()
	adj := l.AdjacentModules()
	for a, ns := range adj {
		for _, b := range ns {
			found := false
			for _, x := range adj[b] {
				if x == a {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", a, b)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fp := NewRandom(tinyDesign(), rng)
	c := fp.Clone()
	before := fp.Pack()
	for i := 0; i < 50; i++ {
		c.Perturb(rng)
	}
	after := fp.Pack()
	for mi := range before.Rects {
		if before.Rects[mi] != after.Rects[mi] {
			t.Fatal("perturbing clone mutated original")
		}
	}
}

// TestCopyFromSharesDesign pins the best-state snapshot contract: Clone and
// CopyFrom copy the floorplan state but share the design, perturbing the
// source leaves the copies' packing unchanged, and a CopyFrom into a
// floorplan that already held a state of the same shape allocates nothing.
func TestCopyFromSharesDesign(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewRandom(fuzzDesign(rng), rng)
	clone := src.Clone()
	var dst Floorplan
	dst.CopyFrom(src)
	want := src.Pack()
	for i := 0; i < 50; i++ {
		src.Perturb(rng)
	}
	for name, c := range map[string]*Floorplan{"Clone": clone, "CopyFrom": &dst} {
		if c.Design != src.Design {
			t.Fatalf("%s: copy does not share the source's design", name)
		}
		got := c.Pack()
		if !reflect.DeepEqual(got.Rects, want.Rects) || !reflect.DeepEqual(got.DieOf, want.DieOf) {
			t.Fatalf("%s: perturbing the source changed the copy's packing", name)
		}
	}
	dst.CopyFrom(src)
	if got, want := dst.Pack(), src.Pack(); !reflect.DeepEqual(got.Rects, want.Rects) || !reflect.DeepEqual(got.DieOf, want.DieOf) {
		t.Fatal("CopyFrom into a used floorplan does not reproduce the source's packing")
	}
	if n := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); n != 0 {
		t.Fatalf("CopyFrom allocates %v times per call, want 0", n)
	}
}

func TestLayoutClone(t *testing.T) {
	l := New(tinyDesign()).Pack()
	c := l.Clone()
	c.Rects[0].X = 999
	c.DieOf[0] = 1
	if l.Rects[0].X == 999 || l.DieOf[0] == 1 {
		t.Fatal("layout clone aliases source")
	}
}

func TestSkylinePackingTight(t *testing.T) {
	// Two 10x10 blocks in a 20-wide outline must pack side by side at y=0.
	d := &netlist.Design{
		Name: "pair",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 20, OutlineH: 100, Dies: 1,
	}
	fp := New(d)
	l := fp.Pack()
	if l.Rects[0].Y != 0 || l.Rects[1].Y != 0 {
		t.Fatalf("blocks should sit at y=0: %+v %+v", l.Rects[0], l.Rects[1])
	}
	if l.Rects[0].X == l.Rects[1].X {
		t.Fatal("blocks overlap in x")
	}
}

func TestSkylineStacksWhenNarrow(t *testing.T) {
	d := &netlist.Design{
		Name: "stack",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 12, OutlineH: 100, Dies: 1,
	}
	l := New(d).Pack()
	if l.Rects[1].Y != 10 && l.Rects[0].Y != 10 {
		t.Fatalf("one block must stack: %+v %+v", l.Rects[0], l.Rects[1])
	}
	if ov := l.OverlapArea(); ov != 0 {
		t.Fatalf("overlap %v", ov)
	}
}

func TestRealBenchmarkPacksWithoutOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	des := bench.MustGenerate("n100")
	rng := rand.New(rand.NewSource(6))
	fp := NewRandom(des, rng)
	for i := 0; i < 100; i++ {
		fp.Perturb(rng)
	}
	l := fp.Pack()
	if ov := l.OverlapArea(); ov > 1e-6 {
		t.Fatalf("overlap %v on n100", ov)
	}
}

func TestResizeKeepsAreaThroughPack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fp := NewRandom(tinyDesign(), rng)
	for i := 0; i < 100; i++ {
		op, _ := fp.Perturb(rng)
		_ = op
		l := fp.Pack()
		for mi, m := range fp.Design.Modules {
			if math.Abs(l.Rects[mi].Area()-m.Area()) > 1e-6*m.Area() {
				t.Fatalf("module %d area drifted: %v vs %v", mi, l.Rects[mi].Area(), m.Area())
			}
		}
	}
}

// TestPackDiffResetReuse drives one PackDiff record through many
// apply/settle/Reset cycles — the evaluator pools the records exactly this
// way — alternating commits and rollbacks, and requires the diff contract
// (changed set exact, rollback byte-identical, reused storage never
// aliasing live state) to hold on every cycle.
func TestPackDiffResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fp := NewRandom(fuzzDesign(rng), rng)
	lay := fp.Pack()
	packers := make([]*DiePacker, lay.Dies)
	for d := range packers {
		packers[d] = &DiePacker{}
	}
	pd := &PackDiff{}
	pre := lay.Clone()
	for cycle := 0; cycle < 60; cycle++ {
		mv, undo := fp.PerturbMove(rng)
		copy(pre.Rects, lay.Rects)
		copy(pre.DieOf, lay.DieOf)
		// One record reused across the move's dies in sequence, the way a
		// pooled record cycles through many moves.
		for i, d := range mv.Dies {
			pd.Reset()
			fp.PackDieFromDiff(lay, d, mv.Starts[i], packers[d], pd)
			for k, m := range pd.Changed {
				if pd.OldRects[k] != pre.Rects[m] || pd.OldDies[k] != pre.DieOf[m] {
					t.Fatalf("cycle %d: stale old placement for module %d after Reset reuse", cycle, m)
				}
			}
			if cycle%2 == 0 {
				pd.Commit()
				pd.Rollback(lay) // the record is settled: a no-op
				copy(pre.Rects, lay.Rects)
				copy(pre.DieOf, lay.DieOf)
			} else {
				pd.Rollback(lay)
				for m := range lay.Rects {
					if lay.Rects[m] != pre.Rects[m] || lay.DieOf[m] != pre.DieOf[m] {
						t.Fatalf("cycle %d: rollback left module %d displaced", cycle, m)
					}
				}
			}
		}
		if cycle%2 == 0 {
			// Accepted: keep the floorplan mutation, verify against a full
			// pack.
			want := fp.Pack()
			for m := range want.Rects {
				if lay.Rects[m] != want.Rects[m] || lay.DieOf[m] != want.DieOf[m] {
					t.Fatalf("cycle %d: accepted layout diverged at module %d", cycle, m)
				}
			}
		} else {
			undo()
			want := fp.Pack()
			for m := range want.Rects {
				if lay.Rects[m] != want.Rects[m] || lay.DieOf[m] != want.DieOf[m] {
					t.Fatalf("cycle %d: rejected layout diverged at module %d", cycle, m)
				}
			}
		}
	}
}

// TestPackDieFromDiffAllocFree pins the packer's allocation diet: once a
// DiePacker and a PackDiff record have seen a die's packing, a repack that
// commits and one that rolls back allocate nothing — the snapshot rows live
// in the packer's arenas and the journal in the record's own buffers.
func TestPackDieFromDiffAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fp := NewRandom(fuzzDesign(rng), rng)
	lay := fp.Pack()
	const d = 0
	dp, pd := &DiePacker{}, &PackDiff{}
	fp.PackDieFromDiff(lay, d, 0, dp, pd)
	pd.Commit()
	// Pick a mid-sequence module whose direction flip moves something, so
	// both settle paths journal real changes.
	pos := -1
	for i := 1; i < len(fp.seq[d]) && pos < 0; i++ {
		fp.dir[fp.seq[d][i]] ^= 1
		pd.Reset()
		fp.PackDieFromDiff(lay, d, i, dp, pd)
		if len(pd.Changed) > 0 {
			pos = i
		}
		fp.dir[fp.seq[d][i]] ^= 1
		pd.Rollback(lay)
	}
	if pos < 0 {
		t.Fatal("no direction flip on die 0 changes the packing")
	}
	mi := fp.seq[d][pos]
	for _, tc := range []struct {
		name   string
		repack func()
	}{
		{"Commit", func() {
			fp.dir[mi] ^= 1
			pd.Reset()
			fp.PackDieFromDiff(lay, d, pos, dp, pd)
			pd.Commit()
		}},
		{"Rollback", func() {
			fp.dir[mi] ^= 1
			pd.Reset()
			fp.PackDieFromDiff(lay, d, pos, dp, pd)
			fp.dir[mi] ^= 1
			pd.Rollback(lay)
		}},
	} {
		for i := 0; i < 4; i++ {
			tc.repack()
		}
		if n := testing.AllocsPerRun(100, tc.repack); n != 0 {
			t.Errorf("PackDieFromDiff+%s allocates %v times per repack, want 0", tc.name, n)
		}
		want := fp.Pack()
		if !reflect.DeepEqual(lay.Rects, want.Rects) || !reflect.DeepEqual(lay.DieOf, want.DieOf) {
			t.Fatalf("PackDieFromDiff+%s: layout diverged from a full Pack", tc.name)
		}
	}
}
