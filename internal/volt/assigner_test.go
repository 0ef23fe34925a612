package volt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// TestAssignerRefreshMatchesAssignOverPerturbations is the held-Assigner
// contract: one Assigner, reused the way the annealing loop reuses it —
// over 150 random floorplan perturbations, then onto unrelated random
// floorplans, then across a design-size change — must produce on every call
// exactly the assignment a fresh Assign produces on the same layout and
// timing. Only the engine's storage carries over between calls. The designs
// are slowModules': on the plain benchmarks every module keeps every level
// feasible at the 1.15 target, so the masks would never change, and the
// test asserts that they do.
func TestAssignerRefreshMatchesAssignOverPerturbations(t *testing.T) {
	des, big := slowModules("n100"), slowModules("n200")
	for _, mode := range []Mode{PowerAware, TSCAware} {
		a := NewAssigner(mode)
		var prevMasks []uint32
		maskChanges := 0
		check := func(what string, l *floorplan.Layout) {
			t.Helper()
			ref := timing.Analyze(l, nil)
			got := a.Assign(l, ref)
			want := Assign(l, ref, mode)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %s: held assigner differs from a fresh Assign (%d vs %d volumes, power %v vs %v)",
					mode, what, len(got.Volumes), len(want.Volumes), got.TotalPower, want.TotalPower)
			}
			if len(prevMasks) == len(a.feasible) && !reflect.DeepEqual(prevMasks, a.feasible) {
				maskChanges++
			}
			prevMasks = append(prevMasks[:0], a.feasible...)
		}

		rng := rand.New(rand.NewSource(17))
		fp := floorplan.NewRandom(des, rng)
		check("initial floorplan", fp.Pack())
		for i := 0; i < 150; i++ {
			fp.Perturb(rng)
			check(fmt.Sprintf("perturbation %d", i), fp.Pack())
		}
		for seed := int64(4); seed < 8; seed++ {
			l := floorplan.NewRandom(des, rand.New(rand.NewSource(seed))).Pack()
			check(fmt.Sprintf("unrelated floorplan %d", seed), l)
		}
		for seed := int64(1); seed < 3; seed++ {
			l := floorplan.NewRandom(big, rand.New(rand.NewSource(seed))).Pack()
			check(fmt.Sprintf("n200 floorplan %d", seed), l)
		}
		check("back to n100", fp.Pack())
		if maskChanges == 0 {
			t.Fatalf("%v: no feasible-level mask changed between floorplans; the test is vacuous", mode)
		}
	}
}

// TestAssignerRefreshJumpsToUnrelatedFloorplan covers the reset-rollback
// path of the incremental evaluator, which hands its held Assigner a layout
// unrelated to the last one: nothing the engine kept from the previous call
// may leak into the next, so every result must match a fresh Assign exactly.
func TestAssignerRefreshJumpsToUnrelatedFloorplan(t *testing.T) {
	des := bench.MustGenerate("n100")
	for _, mode := range []Mode{PowerAware, TSCAware} {
		a := NewAssigner(mode)
		l := floorplan.NewRandom(des, rand.New(rand.NewSource(4))).Pack()
		a.Assign(l, timing.Analyze(l, nil))
		for seed := int64(5); seed < 8; seed++ {
			l := floorplan.NewRandom(des, rand.New(rand.NewSource(seed))).Pack()
			ref := timing.Analyze(l, nil)
			if !reflect.DeepEqual(a.Assign(l, ref), Assign(l, ref, mode)) {
				t.Fatalf("%v: seed %d: held assigner differs from a fresh Assign after the jump", mode, seed)
			}
		}
	}
}

// TestAssignRepeatedCallsIdentical is the determinism contract at full
// strength: repeated Assign calls on the same inputs must agree exactly —
// volumes, levels, and power — not merely in aggregate.
func TestAssignRepeatedCallsIdentical(t *testing.T) {
	for _, mode := range []Mode{PowerAware, TSCAware} {
		l, ref := layoutAndRef(t, "n100", 13)
		first := Assign(l, ref, mode)
		for i := 0; i < 3; i++ {
			if !reflect.DeepEqual(Assign(l, ref, mode), first) {
				t.Fatalf("%v: call %d differs", mode, i+1)
			}
		}
	}
}

// emptyLayout builds a packed layout with no modules at all.
func emptyLayout() *floorplan.Layout {
	des := &netlist.Design{Name: "empty", OutlineW: 100, OutlineH: 100, Dies: 1}
	return floorplan.New(des).Pack()
}

// TestRepairEmptyDesign pins the degenerate-design guard: Repair on a design
// with no modules must return the analysis unchanged instead of indexing an
// empty worst-path slice — even when the assignment's target is unmeetable.
func TestRepairEmptyDesign(t *testing.T) {
	l := emptyLayout()
	ref := timing.Analyze(l, nil)
	asg := Assign(l, ref, PowerAware)
	if len(asg.Volumes) != 0 || asg.TotalPower != 0 {
		t.Fatalf("empty design produced volumes: %+v", asg)
	}
	// Force Verify to fail so Repair actually reaches the offender lookup.
	asg.Target = -1
	a := Repair(l, asg)
	if a == nil {
		t.Fatal("Repair returned nil analysis")
	}
}

// TestRepairSingleModule covers the smallest non-degenerate design: a lone
// module sabotaged below reference (1.56 ns against a 1.15 ns target) must
// be raised back by Repair.
func TestRepairSingleModule(t *testing.T) {
	des := &netlist.Design{
		Name: "solo",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 50, H: 50, Power: 1, IntrinsicDelay: 1.0},
		},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(des).Pack()
	ref := timing.Analyze(l, nil)
	asg := Assign(l, ref, PowerAware)
	for vi := range asg.Volumes {
		asg.setVolumeLevel(vi, levels90nm[0], l)
	}
	a := Repair(l, asg)
	if a.Critical > asg.Target+1e-9 {
		t.Fatalf("repair failed on single module: %v > %v", a.Critical, asg.Target)
	}
	if asg.LevelOf[0].DelayScale > 1.0 {
		t.Fatalf("module left below reference: %+v", asg.LevelOf[0])
	}
}
