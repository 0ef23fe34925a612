package tsv

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/geom"
)

func layoutN100(t *testing.T) *floorplan.Layout {
	t.Helper()
	des := bench.MustGenerate("n100")
	return floorplan.NewRandom(des, rand.New(rand.NewSource(1))).Pack()
}

func TestPlanSignalsOnePerCrossDieNet(t *testing.T) {
	l := layoutN100(t)
	p := PlanSignals(l)
	if got, want := p.SignalCount(), len(l.CrossDieNets()); got != want {
		t.Fatalf("signal TSVs %d, want %d", got, want)
	}
	if p.DummyCount() != 0 {
		t.Fatal("fresh plan must have no dummies")
	}
}

func TestSignalTSVsInsideOutline(t *testing.T) {
	l := layoutN100(t)
	p := PlanSignals(l)
	for _, v := range p.TSVs {
		if v.Pos.X < 0 || v.Pos.X > l.OutlineW || v.Pos.Y < 0 || v.Pos.Y > l.OutlineH {
			t.Fatalf("TSV at %+v outside outline", v.Pos)
		}
	}
}

func TestSignalTSVsClampedToOutline(t *testing.T) {
	l := layoutN100(t)
	// Every module far left of and below the outline: the stitch points
	// clamp onto its corner.
	for i := range l.Rects {
		l.Rects[i].X -= 1e6
		l.Rects[i].Y -= 1e6
	}
	p := PlanSignals(l)
	if len(p.TSVs) == 0 {
		t.Fatal("no signal TSVs planned")
	}
	for _, v := range p.TSVs {
		if v.Pos != (geom.Point{}) {
			t.Fatalf("TSV at %+v, want the outline corner", v.Pos)
		}
	}
}

func TestCuFractionMapSaturatesAndClamps(t *testing.T) {
	p := &Plan{OutlineW: 100, OutlineH: 100}
	// 1000 vias in one 10x10 um cell carry about 200x its area in copper,
	// and a via left of the outline lands in the first column.
	p.AddDummyGap(0, geom.Point{X: 5, Y: 5}, 1000)
	p.AddDummyGap(0, geom.Point{X: -15, Y: 55}, 1)
	g := p.CuFractionMap(10, 10)
	if g.At(0, 0) != 1 {
		t.Fatalf("saturated cell holds %v, want 1", g.At(0, 0))
	}
	if g.At(0, 5) <= 0 {
		t.Fatal("a via left of the outline must land in the first column")
	}
}

func TestAddDummy(t *testing.T) {
	l := layoutN100(t)
	p := PlanSignals(l)
	p.AddDummyGap(0, geom.Point{X: 100, Y: 100}, 4)
	if p.DummyCount() != 4 {
		t.Fatalf("dummy count %d", p.DummyCount())
	}
}

func TestCuFractionMapBounds(t *testing.T) {
	l := layoutN100(t)
	p := PlanSignals(l)
	g := p.CuFractionMap(64, 64)
	for _, v := range g.Data {
		if v < 0 || v > 1 {
			t.Fatalf("fraction %v out of [0,1]", v)
		}
	}
	if g.Sum() <= 0 {
		t.Fatal("map must carry copper")
	}
}

func TestCuFractionScalesWithCount(t *testing.T) {
	p := &Plan{OutlineW: 1000, OutlineH: 1000}
	p.AddDummyGap(0, geom.Point{X: 500, Y: 500}, 1)
	g1 := p.CuFractionMap(10, 10)
	p2 := &Plan{OutlineW: 1000, OutlineH: 1000}
	p2.AddDummyGap(0, geom.Point{X: 500, Y: 500}, 3)
	g3 := p2.CuFractionMap(10, 10)
	if math.Abs(g3.Sum()-3*g1.Sum()) > 1e-12 {
		t.Fatalf("copper should scale with via count: %v vs 3*%v", g3.Sum(), g1.Sum())
	}
}

func TestGeometryAreas(t *testing.T) {
	// The folded constant must carry the bits of the run-time product it
	// replaced, or every copper-fraction map would move.
	r := float64(viaDiameter)
	r /= 2
	if got, want := math.Float64bits(cuAreaPerVia), math.Float64bits(math.Pi*r*r); got != want {
		t.Fatalf("folded copper area %#x, run-time product %#x", got, want)
	}
	if cuAreaPerVia <= 0 {
		t.Fatal("copper area must be positive")
	}
	if cuAreaPerVia >= viaPitch*viaPitch {
		t.Fatal("copper body must be smaller than its pitch cell with keep-out")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := &Plan{OutlineW: 100, OutlineH: 100}
	p.AddDummyGap(0, geom.Point{X: 1, Y: 1}, 1)
	c := p.Clone()
	c.AddDummyGap(0, geom.Point{X: 2, Y: 2}, 1)
	if len(p.TSVs) != 1 {
		t.Fatal("clone aliases source")
	}
}

func TestPatternsGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pat := range AllPatterns() {
		plan := GeneratePattern(pat, 4000, 4000, rng)
		if pat == PatternNone {
			if len(plan.TSVs) != 0 {
				t.Fatalf("%v: expected empty plan", pat)
			}
			continue
		}
		if len(plan.TSVs) == 0 {
			t.Fatalf("%v: expected TSVs", pat)
		}
		for _, v := range plan.TSVs {
			if v.Pos.X < 0 || v.Pos.X > 4000 || v.Pos.Y < 0 || v.Pos.Y > 4000 {
				t.Fatalf("%v: via at %+v outside die", pat, v.Pos)
			}
		}
	}
}

func TestMaxDensityCoversDie(t *testing.T) {
	plan := GeneratePattern(PatternMaxDensity, 1000, 1000, rand.New(rand.NewSource(3)))
	// 1000/10 pitch = 100 per axis.
	if got := plan.SignalCount(); got != 100*100 {
		t.Fatalf("max density count %d", got)
	}
	g := plan.CuFractionMap(10, 10)
	// Every cell must carry the same copper fraction.
	first := g.At(0, 0)
	for _, v := range g.Data {
		if math.Abs(v-first) > 1e-9 {
			t.Fatalf("max density not uniform: %v vs %v", v, first)
		}
	}
}

func TestIslandsAreDense(t *testing.T) {
	plan := GeneratePattern(PatternIslands, 4000, 4000, rand.New(rand.NewSource(4)))
	g := plan.CuFractionMap(16, 16)
	// Islands: few cells hold many vias.
	nonzero := 0
	for _, v := range g.Data {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero > 16 {
		t.Fatalf("islands spread over %d cells; expected concentration", nonzero)
	}
}

func TestRegularLatticeDeterministic(t *testing.T) {
	a := GeneratePattern(PatternIrregularPlusRegular, 4000, 4000, rand.New(rand.NewSource(5)))
	b := GeneratePattern(PatternIrregularPlusRegular, 4000, 4000, rand.New(rand.NewSource(5)))
	if len(a.TSVs) != len(b.TSVs) {
		t.Fatal("same seed must reproduce the same plan")
	}
	for i := range a.TSVs {
		if a.TSVs[i] != b.TSVs[i] {
			t.Fatal("same seed must reproduce the same plan")
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range AllPatterns() {
		if p.String() == "pattern?" {
			t.Fatalf("pattern %d missing name", p)
		}
	}
	if Pattern(NumPatterns).String() != "pattern?" {
		t.Fatal("an unknown pattern must read pattern?")
	}
	if Signal.String() != "signal" || Dummy.String() != "dummy" {
		t.Fatal("kind strings")
	}
}
