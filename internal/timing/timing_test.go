package timing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/netlist"
)

func chainDesign() *netlist.Design {
	// a -> b -> c chain via two 2-pin nets.
	return &netlist.Design{
		Name: "chain",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.2},
			{Name: "c", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.3},
		},
		Nets: []*netlist.Net{
			{Name: "ab", Modules: []int{0, 1}},
			{Name: "bc", Modules: []int{1, 2}},
		},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
}

func analyzeChain(t *testing.T, scale []float64) (*floorplan.Layout, *Analysis) {
	t.Helper()
	l := floorplan.New(chainDesign()).Pack()
	return l, Analyze(l, scale)
}

func TestCriticalIsWorstHop(t *testing.T) {
	_, a := analyzeChain(t, nil)
	hopAB := 0.1 + a.NetDelay[0] + 0.2
	hopBC := 0.2 + a.NetDelay[1] + 0.3
	want := math.Max(hopAB, hopBC)
	if math.Abs(a.Critical-want) > 1e-9 {
		t.Fatalf("critical %v want %v", a.Critical, want)
	}
}

func TestArriveDepartStages(t *testing.T) {
	_, a := analyzeChain(t, nil)
	// Module a is the chain source: no incoming stage.
	if a.Arrive[0] != 0 {
		t.Fatal("source module must have arrival 0")
	}
	// Module c is the chain sink: no outgoing stage.
	if a.Depart[2] != 0 {
		t.Fatal("sink module must have departure 0")
	}
	// Middle module b sees both stages.
	if math.Abs(a.Arrive[1]-(0.1+a.NetDelay[0])) > 1e-9 {
		t.Fatalf("arrive[b] = %v", a.Arrive[1])
	}
	if math.Abs(a.Depart[1]-(a.NetDelay[1]+0.3)) > 1e-9 {
		t.Fatalf("depart[b] = %v", a.Depart[1])
	}
}

func TestDelayScaleRaisesCritical(t *testing.T) {
	_, base := analyzeChain(t, nil)
	_, slow := analyzeChain(t, []float64{1.56, 1.56, 1.56})
	if slow.Critical <= base.Critical {
		t.Fatalf("scaling delays up must raise critical: %v vs %v", slow.Critical, base.Critical)
	}
	// Worst hop is b-c: module contributions scale by exactly 1.56.
	wantModules := 1.56 * (0.2 + 0.3)
	gotModules := slow.Critical - slow.NetDelay[1]
	if math.Abs(gotModules-wantModules) > 1e-9 {
		t.Fatalf("module delays %v want %v", gotModules, wantModules)
	}
}

// TestSlack checks every module meets a clock 10% slower than the critical
// delay: its slack, the target minus PathThrough, is non-negative.
func TestSlack(t *testing.T) {
	_, a := analyzeChain(t, nil)
	target := a.Critical * 1.1
	for m := 0; m < 3; m++ {
		if s := target - a.PathThrough(m); s < 0 {
			t.Fatalf("module %d negative slack %v against relaxed target", m, s)
		}
	}
}

func TestNetElmorePositiveAndGrowsWithLength(t *testing.T) {
	d := chainDesign()
	d.OutlineW, d.OutlineH = 5000, 5000
	l := floorplan.New(d).Pack()
	short := NetElmore(l, 0)
	if short <= 0 {
		t.Fatal("net delay must be positive")
	}
	// A 1 mm 2-pin net lands in the tens to hundreds of ps.
	mm := l.Clone()
	mm.Rects[1].X += 1000
	if got := NetElmore(mm, 0); got < 0.01 || got > 2 {
		t.Fatalf("1mm net delay %v ns implausible", got)
	}
	// Move module 1 far away; its net delay must grow.
	l2 := l.Clone()
	l2.Rects[1].X += 4000
	l2.Rects[1].Y += 4000
	long := NetElmore(l2, 0)
	if long <= short {
		t.Fatalf("longer net must be slower: %v vs %v", long, short)
	}
}

func TestCrossDieNetPaysTSVPenalty(t *testing.T) {
	d := chainDesign()
	d.Dies = 2
	fp := floorplan.New(d) // round-robin: a,c on die 0; b on die 1
	l := fp.Pack()
	dSame := *d.Clone()
	dSame.Dies = 1
	lSame := floorplan.New(&dSame).Pack()
	// Align positions so only the TSV term differs: copy rects.
	copy(lSame.Rects, l.Rects)
	cross := NetElmore(l, 0)
	same := NetElmore(lSame, 0)
	if cross <= same {
		t.Fatalf("cross-die net must be slower: %v vs %v", cross, same)
	}
}

func TestHigherFanoutSlower(t *testing.T) {
	d := chainDesign()
	d.Nets = append(d.Nets, &netlist.Net{Name: "big", Modules: []int{0, 1, 2}})
	l := floorplan.New(d).Pack()
	two := NetElmore(l, 0)   // 2-pin a-b
	three := NetElmore(l, 2) // 3-pin a-b-c
	if three <= two {
		t.Fatalf("3-pin net should be slower than 2-pin subnet: %v vs %v", three, two)
	}
}

func TestWorstPathsOrdering(t *testing.T) {
	des := bench.MustGenerate("n100")
	l := floorplan.NewRandom(des, rand.New(rand.NewSource(1))).Pack()
	a := Analyze(l, nil)
	worst := a.WorstPaths(10)
	if len(worst) != 10 {
		t.Fatalf("got %d", len(worst))
	}
	for i := 1; i < len(worst); i++ {
		if a.PathThrough(worst[i]) > a.PathThrough(worst[i-1])+1e-12 {
			t.Fatal("WorstPaths not sorted descending")
		}
	}
	if math.Abs(a.PathThrough(worst[0])-a.Critical) > 1e-9 {
		t.Fatal("worst path must equal critical delay")
	}
}

func TestCriticalInPlausibleRange(t *testing.T) {
	// Table 2 reports criticals between ~0.78 and ~3.8 ns across
	// benchmarks; our synthetic stand-ins should land in the same decade.
	des := bench.MustGenerate("n100")
	l := floorplan.NewRandom(des, rand.New(rand.NewSource(2))).Pack()
	a := Analyze(l, nil)
	if a.Critical < 0.1 || a.Critical > 50 {
		t.Fatalf("critical %v ns implausible", a.Critical)
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	des := bench.MustGenerate("n100")
	l := floorplan.NewRandom(des, rand.New(rand.NewSource(3))).Pack()
	a1 := Analyze(l, nil)
	a2 := Analyze(l, nil)
	if a1.Critical != a2.Critical {
		t.Fatal("analysis must be deterministic")
	}
}
