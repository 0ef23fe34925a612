package tsv

import (
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// threeDieDesign builds a chain spanning all three dies under round-robin
// assignment (a on die 0, b on die 1, c on die 2).
func threeDieDesign() *netlist.Design {
	return &netlist.Design{
		Name: "3d",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 20, H: 20, Power: 1},
			{Name: "b", Kind: netlist.Hard, W: 20, H: 20, Power: 1},
			{Name: "c", Kind: netlist.Hard, W: 20, H: 20, Power: 1},
		},
		Nets: []*netlist.Net{
			{Name: "ac", Modules: []int{0, 2}}, // spans dies 0..2: two gaps
			{Name: "ab", Modules: []int{0, 1}}, // spans dies 0..1: one gap
		},
		OutlineW: 100, OutlineH: 100, Dies: 3,
	}
}

func TestPlanSignalsPerGap(t *testing.T) {
	l := floorplan.New(threeDieDesign()).Pack()
	p := PlanSignals(l)
	// Net ac needs vias in gaps 0 and 1; net ab only in gap 0.
	byGapNet := map[[2]int]int{}
	for _, v := range p.TSVs {
		byGapNet[[2]int{v.Gap, v.Net}]++
	}
	if byGapNet[[2]int{0, 0}] != 1 || byGapNet[[2]int{1, 0}] != 1 {
		t.Fatalf("net ac should hold one via per gap: %v", byGapNet)
	}
	if byGapNet[[2]int{0, 1}] != 1 || byGapNet[[2]int{1, 1}] != 0 {
		t.Fatalf("net ab should only cross gap 0: %v", byGapNet)
	}
	if p.SignalCount() != 3 {
		t.Fatalf("total signal vias %d, want 3", p.SignalCount())
	}
}

func TestCuFractionMapGapFilters(t *testing.T) {
	l := floorplan.New(threeDieDesign()).Pack()
	p := PlanSignals(l)
	g0 := p.CuFractionMapGap(0, 10, 10)
	g1 := p.CuFractionMapGap(1, 10, 10)
	all := p.CuFractionMap(10, 10)
	// Gap 0 carries two vias, gap 1 one via; merged map carries all three.
	if g0.Sum() <= g1.Sum() {
		t.Fatalf("gap 0 should carry more copper: %v vs %v", g0.Sum(), g1.Sum())
	}
	want := g0.Sum() + g1.Sum()
	if diff := all.Sum() - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("merged map %v != sum of gaps %v", all.Sum(), want)
	}
}

func TestAddDummyGapBookkeeping(t *testing.T) {
	p := &Plan{OutlineW: 100, OutlineH: 100}
	p.AddDummyGap(1, geom.Point{X: 50, Y: 50}, 3)
	p.AddDummyGap(0, geom.Point{X: 20, Y: 20}, 2)
	if p.DummyCount() != 5 {
		t.Fatalf("dummy count %d", p.DummyCount())
	}
	if p.CuFractionMapGap(1, 4, 4).Sum() <= 0 {
		t.Fatal("gap 1 map empty")
	}
	if p.CuFractionMapGap(0, 4, 4).Sum() <= 0 {
		t.Fatal("gap 0 map empty")
	}
}

func TestPatternPlansStayInGapZero(t *testing.T) {
	// Synthetic exploration patterns model a two-die stack: all vias in
	// gap 0.
	rng := rand.New(rand.NewSource(1))
	for _, pat := range AllPatterns() {
		plan := GeneratePattern(pat, 1000, 1000, rng)
		for _, v := range plan.TSVs {
			if v.Gap != 0 {
				t.Fatalf("%v: via in gap %d", pat, v.Gap)
			}
		}
	}
}
