package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// TestSkylineSequentialPlacements drives the packer directly through a
// scripted sequence and checks every invariant after each step.
func TestSkylineSequentialPlacements(t *testing.T) {
	s := newSkyline(100)
	type placed struct{ x, y, w, h float64 }
	var all []placed
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 200; step++ {
		w := 1 + rng.Float64()*30
		h := 1 + rng.Float64()*30
		dir := InsertDir(rng.Intn(2))
		x, y := s.place(w, h, dir)
		p := placed{x, y, w, h}
		// Never placed left of the origin or beyond the strip width when
		// it fits.
		if x < 0 {
			t.Fatalf("step %d: x=%v", step, x)
		}
		if w <= 100 && x+w > 100+1e-9 {
			t.Fatalf("step %d: module sticks out right: x=%v w=%v", step, x, w)
		}
		// No overlap with anything placed before.
		for i, q := range all {
			if x < q.x+q.w && q.x < x+w && y < q.y+q.h && q.y < y+h {
				t.Fatalf("step %d overlaps placement %d: %+v vs %+v", step, i, p, q)
			}
		}
		all = append(all, p)
	}
}

// TestSkylineSupportInvariant: every module must rest either on the floor
// or on top of at least one previously placed module (no floating blocks).
func TestSkylineSupportInvariant(t *testing.T) {
	s := newSkyline(50)
	type placed struct{ x, y, w, h float64 }
	var all []placed
	rng := rand.New(rand.NewSource(10))
	for step := 0; step < 100; step++ {
		w := 1 + rng.Float64()*20
		h := 1 + rng.Float64()*10
		x, y := s.place(w, h, LowestFirst)
		if y > 0 {
			supported := false
			for _, q := range all {
				if math.Abs(q.y+q.h-y) < 1e-9 && q.x < x+w && x < q.x+q.w {
					supported = true
					break
				}
			}
			if !supported {
				t.Fatalf("step %d: module at (%v,%v) floats", step, x, y)
			}
		}
		all = append(all, placed{x, y, w, h})
	}
}

// TestSkylineWiderThanStrip: modules wider than the strip clamp to x=0 and
// still never overlap previously placed modules.
func TestSkylineWiderThanStrip(t *testing.T) {
	s := newSkyline(10)
	x0, y0 := s.place(25, 5, LowestFirst)
	if x0 != 0 || y0 != 0 {
		t.Fatalf("oversize module should clamp to origin: (%v,%v)", x0, y0)
	}
	x1, y1 := s.place(25, 5, LowestFirst)
	if x1 != 0 || y1 < 5 {
		t.Fatalf("second oversize module must stack: (%v,%v)", x1, y1)
	}
}

// TestPackPropertyRandomDesigns: quick-generated designs always pack
// without overlap and preserve areas.
func TestPackPropertyRandomDesigns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		d := &netlist.Design{Name: "q", OutlineW: 200, OutlineH: 200, Dies: 1 + rng.Intn(3)}
		for i := 0; i < n; i++ {
			kind := netlist.Hard
			if rng.Intn(2) == 0 {
				kind = netlist.Soft
			}
			m := &netlist.Module{
				Name: "m" + string(rune('a'+i)), Kind: kind,
				W: 5 + rng.Float64()*40, H: 5 + rng.Float64()*40,
				MinAspect: 0.25, MaxAspect: 4, Power: rng.Float64(),
			}
			d.Modules = append(d.Modules, m)
		}
		d.Nets = append(d.Nets, &netlist.Net{Name: "n0", Modules: []int{0, 1}})
		fp := NewRandom(d, rng)
		for k := 0; k < 30; k++ {
			fp.Perturb(rng)
		}
		l := fp.Pack()
		if l.OverlapArea() > 1e-9 {
			return false
		}
		for mi, m := range fp.Design.Modules {
			if math.Abs(l.Rects[mi].Area()-m.Area()) > 1e-6*m.Area() {
				return false
			}
		}
		return fp.CheckInvariants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPerturbOpsCoverage: over many perturbations every operator fires.
func TestPerturbOpsCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fp := NewRandom(tinyDesign(), rng)
	seen := map[Op]int{}
	for i := 0; i < 2000; i++ {
		op, undo := fp.Perturb(rng)
		seen[op]++
		_ = undo
	}
	for op := OpSwap; op < numOps; op++ {
		if seen[op] == 0 {
			t.Fatalf("operator %v never fired", op)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpSwap; op < numOps; op++ {
		if op.String() == "op?" {
			t.Fatalf("op %d missing name", op)
		}
	}
}
