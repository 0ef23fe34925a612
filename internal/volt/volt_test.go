package volt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/timing"
)

func layoutAndRef(t *testing.T, name string, seed int64) (*floorplan.Layout, *timing.Analysis) {
	t.Helper()
	des := bench.MustGenerate(name)
	l := floorplan.NewRandom(des, rand.New(rand.NewSource(seed))).Pack()
	return l, timing.Analyze(l, nil)
}

// slowModules returns the named benchmark with every module's intrinsic
// delay multiplied by 50, so module delays dominate the timing hops. At the
// 1.15 target every module of the plain n100 and ibm01 keeps all three
// levels feasible; on this design the slowest modules lose 0.8 V, and which
// ones depends on the floorplan.
func slowModules(name string) *netlist.Design {
	des := bench.MustGenerate(name).Clone()
	for _, m := range des.Modules {
		m.IntrinsicDelay *= 50
	}
	return des
}

func TestLevels90nmMatchPaper(t *testing.T) {
	ls := levels90nm
	if len(ls) != 3 {
		t.Fatal("need 3 levels")
	}
	if ls[0].V != 0.8 || ls[0].PowerScale != 0.817 || ls[0].DelayScale != 1.56 {
		t.Fatalf("0.8V level wrong: %+v", ls[0])
	}
	if ls[1].V != 1.0 || ls[1].PowerScale != 1.0 || ls[1].DelayScale != 1.0 {
		t.Fatalf("1.0V level wrong: %+v", ls[1])
	}
	if ls[2].V != 1.2 || ls[2].PowerScale != 1.496 || ls[2].DelayScale != 0.83 {
		t.Fatalf("1.2V level wrong: %+v", ls[2])
	}
}

func TestAssignCoversEveryModule(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 1)
	asg := Assign(l, ref, PowerAware)
	covered := make([]bool, len(l.Design.Modules))
	for _, v := range asg.Volumes {
		for _, m := range v.Modules {
			if covered[m] {
				t.Fatalf("module %d in two volumes", m)
			}
			covered[m] = true
		}
	}
	for m, ok := range covered {
		if !ok {
			t.Fatalf("module %d not assigned", m)
		}
	}
}

func TestAssignScalesConsistent(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 2)
	asg := Assign(l, ref, PowerAware)
	for m := range l.Design.Modules {
		lv := asg.LevelOf[m]
		if asg.PowerScale[m] != lv.PowerScale || asg.DelayScale[m] != lv.DelayScale {
			t.Fatalf("module %d scales inconsistent with level", m)
		}
	}
}

func TestPowerAwareSavesPower(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 3)
	asg := Assign(l, ref, PowerAware)
	nominal := l.Design.TotalPower()
	if asg.TotalPower > nominal {
		t.Fatalf("power-aware assignment must not raise power: %v vs %v", asg.TotalPower, nominal)
	}
	// With a relaxed target (+15%) some modules must drop to 0.8 V.
	low := 0
	for m := range l.Design.Modules {
		if asg.LevelOf[m].V == 0.8 {
			low++
		}
	}
	if low == 0 {
		t.Fatal("expected some modules at 0.8V under a relaxed target")
	}
}

func TestTSCAwareMoreVolumes(t *testing.T) {
	// The paper reports 87% more voltage volumes in TSC-aware mode: the
	// uniformity objective fragments the partition. Direction must hold.
	l, ref := layoutAndRef(t, "n100", 4)
	pa := Assign(l, ref, PowerAware)
	tsc := Assign(l, ref, TSCAware)
	if len(tsc.Volumes) <= len(pa.Volumes) {
		t.Fatalf("TSC-aware should use more volumes: %d vs %d", len(tsc.Volumes), len(pa.Volumes))
	}
}

func TestTSCAwareLowerIntraVolumeSpread(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 5)
	pa := Assign(l, ref, PowerAware)
	tsc := Assign(l, ref, TSCAware)
	if tsc.IntraVolumeDensityStdDev(l) > pa.IntraVolumeDensityStdDev(l) {
		t.Fatalf("TSC-aware intra-volume spread %v should not exceed PA %v",
			tsc.IntraVolumeDensityStdDev(l), pa.IntraVolumeDensityStdDev(l))
	}
}

func TestRepairMeetsTargetOrIdentifiesFloorplanLimit(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 6)
	asg := Assign(l, ref, PowerAware)
	a := Repair(l, asg)
	if a.Critical > asg.Target+1e-9 {
		// Only acceptable if no volume below reference remains.
		for _, v := range asg.Volumes {
			if v.Level.DelayScale > 1.0 {
				t.Fatalf("repair left slow volume while timing fails: %v > %v", a.Critical, asg.Target)
			}
		}
	}
}

func TestVerifyAgreesWithTiming(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 7)
	asg := Assign(l, ref, PowerAware)
	a, ok := Verify(l, asg)
	if ok != (a.Critical <= asg.Target+1e-9) {
		t.Fatal("verify flag inconsistent")
	}
}

func TestFeasibilityRespectsTightTarget(t *testing.T) {
	// Where module delays dominate, slowing a module on a critical hop by
	// 1.56x blows the 15% slack: its mask loses 0.8 V, and no volume may
	// put it there. Repair then lands close to the target.
	des := slowModules("n100")
	l := floorplan.NewRandom(des, rand.New(rand.NewSource(8))).Pack()
	ref := timing.Analyze(l, nil)
	asg := Assign(l, ref, PowerAware)
	restricted := 0
	for m := range des.Modules {
		slowed := math.Max(ref.Arrive[m], ref.Depart[m]) + ref.ModuleDelay[m]*levels90nm[0].DelayScale
		if slowed <= asg.Target {
			continue
		}
		restricted++
		if asg.LevelOf[m].V == 0.8 {
			t.Fatalf("module %d assigned 0.8V: its hop %v would exceed the target %v", m, slowed, asg.Target)
		}
	}
	if restricted == 0 {
		t.Fatal("no module lost 0.8 V; the test is vacuous")
	}
	if worst := ref.WorstPaths(1)[0]; asg.LevelOf[worst].V == 0.8 {
		t.Fatal("critical module assigned 0.8V under the 15% target")
	}
	a := Repair(l, asg)
	if slackViolation := a.Critical - asg.Target; slackViolation > 0.05*asg.Target {
		t.Fatalf("repaired timing %v far above target %v", a.Critical, asg.Target)
	}
}

func TestSingletonFallback(t *testing.T) {
	// Every module must be assigned even when no candidate tree can grow:
	// modules spread apart have no neighbours, so each is its own volume.
	des := &netlist.Design{Name: "spread", OutlineW: 1000, OutlineH: 1000, Dies: 1}
	for i := 0; i < 9; i++ {
		des.Modules = append(des.Modules, &netlist.Module{
			Name: fmt.Sprintf("m%d", i), Kind: netlist.Hard, W: 50, H: 50,
			Power: float64(1 + i%3), IntrinsicDelay: 0.1,
		})
	}
	l := floorplan.New(des).Pack()
	for i := range l.Rects {
		l.Rects[i].X, l.Rects[i].Y = float64(i%3)*300, float64(i/3)*300
	}
	ref := timing.Analyze(l, nil)
	for _, mode := range []Mode{PowerAware, TSCAware} {
		asg := Assign(l, ref, mode)
		if len(asg.Volumes) != len(des.Modules) {
			t.Fatalf("%v: expected all singleton volumes, got %d", mode, len(asg.Volumes))
		}
		for vi, v := range asg.Volumes {
			if len(v.Modules) != 1 {
				t.Fatalf("%v: volume %d holds %v", mode, vi, v.Modules)
			}
		}
	}
}

func TestInterVolumeStdDevNonNegative(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 10)
	for _, mode := range []Mode{PowerAware, TSCAware} {
		asg := Assign(l, ref, mode)
		if asg.InterVolumeDensityStdDev(l) < 0 {
			t.Fatal("negative stddev")
		}
	}
}

func TestAssignDeterministic(t *testing.T) {
	l, ref := layoutAndRef(t, "n100", 11)
	a := Assign(l, ref, TSCAware)
	b := Assign(l, ref, TSCAware)
	if len(a.Volumes) != len(b.Volumes) {
		t.Fatal("volume count differs between identical runs")
	}
	if math.Abs(a.TotalPower-b.TotalPower) > 1e-12 {
		t.Fatal("total power differs between identical runs")
	}
}

func TestVolumesSpanDies(t *testing.T) {
	// Voltage volumes are 3D: at least one multi-module volume should span
	// both dies on a benchmark of this size (vertical adjacency links).
	l, ref := layoutAndRef(t, "n100", 12)
	asg := Assign(l, ref, PowerAware)
	spans := false
	for _, v := range asg.Volumes {
		dies := map[int]bool{}
		for _, m := range v.Modules {
			dies[l.DieOf[m]] = true
		}
		if len(dies) > 1 {
			spans = true
			break
		}
	}
	if !spans {
		t.Fatal("no volume spans dies; 3D volume growth broken")
	}
}
