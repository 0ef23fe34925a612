package volt

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// pairDesign returns two adjacent modules joined by one net; their intrinsic
// delays against the net's (about 0.01 ns) set each module's slack at the
// fixed 1.15 target.
func pairDesign(delayA, delayB float64) *netlist.Design {
	return &netlist.Design{
		Name: "pair",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 50, H: 50, Power: 1, IntrinsicDelay: delayA},
			{Name: "b", Kind: netlist.Hard, W: 50, H: 50, Power: 1, IntrinsicDelay: delayB},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
}

func TestTightSlackForcesReference(t *testing.T) {
	d := pairDesign(1.0, 1.0)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil)
	// Module delays dominate the ~2 ns hop: slowing either module to 0.8 V
	// (1.56x) adds 0.56 ns, past the 15% slack, so 0.8 V is infeasible
	// everywhere.
	asg := Assign(l, ref, PowerAware)
	for m := range d.Modules {
		if asg.LevelOf[m].V == 0.8 {
			t.Fatalf("module %d assigned 0.8V without slack", m)
		}
	}
}

func TestGenerousSlackAllowsLowVoltage(t *testing.T) {
	d := pairDesign(0.001, 0.001)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil)
	// The net dominates the hop: slowing a 1 ps module by 1.56x fits the
	// 15% slack easily, and power-aware assignment must use it.
	asg := Assign(l, ref, PowerAware)
	for m := range d.Modules {
		if asg.LevelOf[m].V != 0.8 {
			t.Fatalf("module %d should run at 0.8V on a net-dominated hop, got %v", m, asg.LevelOf[m].V)
		}
	}
	wantPower := 2 * 0.817
	if math.Abs(asg.TotalPower-wantPower) > 1e-9 {
		t.Fatalf("power %v want %v", asg.TotalPower, wantPower)
	}
}

func TestAsymmetricSlack(t *testing.T) {
	// Module a dominates the hop; b is fast: slowing b (0.1 -> 0.156 ns)
	// fits the 15% slack, slowing a (1.0 -> 1.56 ns) blows the hop. The two
	// adjacent modules share one volume, so the per-module feasibility is
	// read from the masks.
	d := pairDesign(1.0, 0.1)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil)
	a := NewAssigner(PowerAware)
	a.Assign(l, ref)
	const low = 1 << 0 // levels90nm[0], 0.8 V
	if a.feasibleMask(0, ref)&low != 0 {
		t.Fatal("critical module a must not drop to 0.8V at 15% slack")
	}
	if a.feasibleMask(1, ref)&low == 0 {
		t.Fatal("slack-rich module b should be feasible at 0.8V")
	}
}

func TestRepairRestoresTiming(t *testing.T) {
	// Force an over-aggressive assignment by hand, then Repair.
	d := pairDesign(1.0, 1.0)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil)
	asg := Assign(l, ref, PowerAware)
	// Sabotage: drop everything to 0.8V regardless of feasibility.
	for vi := range asg.Volumes {
		asg.setVolumeLevel(vi, levels90nm[0], l)
	}
	// The sabotaged hop (3.12 ns plus the net) breaks the target; at 1.0 V
	// it meets it again, so Repair must restore timing outright.
	if _, ok := Verify(l, asg); ok {
		t.Fatal("sabotaged assignment meets timing; the test is vacuous")
	}
	final := Repair(l, asg)
	if final.Critical > asg.Target+1e-9 {
		t.Fatalf("repair left critical %v above target %v", final.Critical, asg.Target)
	}
}

func TestLevelsHelpers(t *testing.T) {
	const mask = 0b101 // 0.8 V and 1.2 V
	feas := feasibleLevels(mask)
	if len(feas) != 2 || feas[0].V != 0.8 || feas[1].V != 1.2 {
		t.Fatalf("feasibleLevels: %+v", feas)
	}
	lv := lowestLevel(mask)
	if lv == nil || lv.V != 0.8 {
		t.Fatalf("lowestLevel: %+v", lv)
	}
	if refLevel().V != 1.0 {
		t.Fatal("refLevel")
	}
	if lowestLevel(0) != nil {
		t.Fatal("empty mask must yield nil")
	}
}

func TestStatHelpers(t *testing.T) {
	dens := []float64{1, 3}
	if meanDensity([]int{0, 1}, dens) != 2 {
		t.Fatal("mean")
	}
	if stdDensity([]int{0, 1}, dens) != 1 {
		t.Fatal("std")
	}
	if stdDensity([]int{0}, dens) != 0 {
		t.Fatal("singleton std must be 0")
	}
	if meanOf(nil) != 0 || stdOf(nil) != 0 {
		t.Fatal("empty stats")
	}
}

func TestLowestPowerScaleTable(t *testing.T) {
	// The assigner's lowPS table must agree with lowestLevel for every mask
	// value: it replaces the per-candidate scan on the growth hot path.
	for mask := uint32(0); mask < 1<<len(levels90nm); mask++ {
		want := 1.0
		if lv := lowestLevel(mask); lv != nil {
			want = lv.PowerScale
		}
		if got := lowPS[mask]; got != want {
			t.Fatalf("lowPS[%03b] = %v, want %v", mask, got, want)
		}
	}
	// The empty mask yields a zero saving through the power formula.
	if s := 2.0 * (1 - lowPS[0]); s != 0 {
		t.Fatalf("empty-mask saving = %v, want 0", s)
	}
	if want := 2.0 * (1 - 0.817); math.Abs(2.0*(1-lowPS[0b011])-want) > 1e-12 {
		t.Fatalf("masked saving wrong: %v", 2.0*(1-lowPS[0b011]))
	}
}
