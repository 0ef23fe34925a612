package timing

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
)

func TestElmoreQuadraticInLength(t *testing.T) {
	// The distributed-RC term grows quadratically: delay(2L) - delay(0)
	// should exceed 2*(delay(L) - delay(0)).
	d := &netlist.Design{
		Name: "q",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 20000, OutlineH: 20000, Dies: 1,
	}
	at := func(dist float64) float64 {
		l := floorplan.New(d).Pack()
		l.Rects[1].X += dist
		return NetElmore(l, 0)
	}
	base := at(0)
	one := at(4000)
	two := at(8000)
	if (two - base) <= 2*(one-base) {
		t.Fatalf("expected super-linear growth: %v vs %v", two-base, one-base)
	}
}

func TestSlackHelperSigns(t *testing.T) {
	d := &netlist.Design{
		Name: "s",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	a := Analyze(l, nil)
	if a.Critical-a.PathThrough(0) < -1e-12 {
		t.Fatal("slack against the critical itself must be non-negative for all modules")
	}
	if a.Critical*0.5-a.PathThrough(0) >= 0 {
		t.Fatal("slack must go negative for an infeasible target")
	}
}

func TestTerminalOnlyNetsIgnoredBySTA(t *testing.T) {
	// A net touching one module plus a terminal constrains no module-to-
	// module hop; Arrive/Depart must stay zero for an isolated module.
	d := &netlist.Design{
		Name: "t",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.3},
		},
		Nets:      []*netlist.Net{{Name: "n", Modules: []int{0}, Terminals: []int{0}}},
		Terminals: []*netlist.Terminal{{Name: "p", X: 0, Y: 50}},
		OutlineW:  100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	a := Analyze(l, nil)
	if a.Arrive[0] != 0 || a.Depart[0] != 0 {
		t.Fatal("terminal nets must not create module hops")
	}
	if math.Abs(a.Critical-0.3) > 1e-12 {
		t.Fatalf("critical %v should equal the lone module delay", a.Critical)
	}
}

// TestAnalysisDoesNotAliasNetDelay is the regression test for the aliasing
// bug: AnalyzeFromNetDelaysInto used to store the caller's netDelay slice
// directly, so an Analysis retained past the call (a report, a Result
// snapshot) silently drifted when the incremental evaluator patched its
// cached delays on the next move. All entry points must copy.
func TestAnalysisDoesNotAliasNetDelay(t *testing.T) {
	des := chainDesign()
	src := []float64{0.5, 0.7}
	for _, tc := range []struct {
		name string
		a    *Analysis
	}{
		{"AnalyzeFromNetDelaysInto-nil", AnalyzeFromNetDelaysInto(des, src, nil, nil)},
		{"AnalyzeFromNetDelaysInto-reused", AnalyzeFromNetDelaysInto(des, src, nil, &Analysis{})},
	} {
		critBefore := tc.a.Critical
		nd := append([]float64(nil), tc.a.NetDelay...)
		src[0], src[1] = 99, 99 // the next move patches the cached delays
		for i := range nd {
			if tc.a.NetDelay[i] != nd[i] {
				t.Fatalf("%s: NetDelay[%d] drifted to %v after the source slice was mutated",
					tc.name, i, tc.a.NetDelay[i])
			}
		}
		if tc.a.Critical != critBefore {
			t.Fatalf("%s: Critical drifted", tc.name)
		}
		src[0], src[1] = 0.5, 0.7
	}
}

// TestElmoreDelayDegenerateNetsZero pins the degenerate-net definition: a
// net with fewer than two pins has no wire and zero delay. Without the
// guard a zero-pin net yielded a NEGATIVE delay (sinkPins = -1).
func TestElmoreDelayDegenerateNetsZero(t *testing.T) {
	for degree := 0; degree < 2; degree++ {
		for _, cross := range []bool{false, true} {
			if d := ElmoreDelay(500, cross, degree); d != 0 {
				t.Fatalf("degree-%d net (cross=%v) has delay %v, want 0", degree, cross, d)
			}
		}
	}
	if d := ElmoreDelay(500, false, 2); d <= 0 {
		t.Fatalf("real net delay %v must stay positive", d)
	}
}

func TestWorstPathsZeroK(t *testing.T) {
	d := &netlist.Design{
		Name: "z",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	a := Analyze(l, nil)
	if got := a.WorstPaths(0); len(got) != 0 {
		t.Fatalf("k=0 should be empty, got %v", got)
	}
	if got := a.WorstPaths(100); len(got) != 2 {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
}
