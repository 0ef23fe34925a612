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
// timing. Only the engine's storage carries over between calls. At the
// default target every module keeps every level feasible on these
// floorplans, so a tight target makes the feasible-level masks change too.
func TestAssignerRefreshMatchesAssignOverPerturbations(t *testing.T) {
	p := timing.DefaultParams()
	for _, cfg := range []Config{
		{Mode: PowerAware},
		{Mode: TSCAware},
		{Mode: TSCAware, TargetFactor: 1.0000001},
	} {
		mode := cfg.Mode
		a := NewAssigner(cfg)
		check := func(what string, l *floorplan.Layout) {
			t.Helper()
			ref := timing.Analyze(l, nil, p)
			got := a.Assign(l, ref)
			want := Assign(l, ref, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %s: held assigner differs from a fresh Assign (%d vs %d volumes, power %v vs %v)",
					mode, what, len(got.Volumes), len(want.Volumes), got.TotalPower, want.TotalPower)
			}
		}

		des := bench.MustGenerate("n100")
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
		big := bench.MustGenerate("n200")
		for seed := int64(1); seed < 3; seed++ {
			l := floorplan.NewRandom(big, rand.New(rand.NewSource(seed))).Pack()
			check(fmt.Sprintf("n200 floorplan %d", seed), l)
		}
		check("back to n100", fp.Pack())
	}
}

// TestAssignerRefreshJumpsToUnrelatedFloorplan covers the reset-rollback
// path of the incremental evaluator, which hands its held Assigner a layout
// unrelated to the last one: nothing the engine kept from the previous call
// may leak into the next, so every result must match a fresh Assign exactly.
func TestAssignerRefreshJumpsToUnrelatedFloorplan(t *testing.T) {
	des := bench.MustGenerate("n100")
	p := timing.DefaultParams()
	for _, mode := range []Mode{PowerAware, TSCAware} {
		cfg := Config{Mode: mode}
		a := NewAssigner(cfg)
		l := floorplan.NewRandom(des, rand.New(rand.NewSource(4))).Pack()
		a.Assign(l, timing.Analyze(l, nil, p))
		for seed := int64(5); seed < 8; seed++ {
			l := floorplan.NewRandom(des, rand.New(rand.NewSource(seed))).Pack()
			ref := timing.Analyze(l, nil, p)
			if !reflect.DeepEqual(a.Assign(l, ref), Assign(l, ref, cfg)) {
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
		cfg := Config{Mode: mode}
		first := Assign(l, ref, cfg)
		for i := 0; i < 3; i++ {
			if !reflect.DeepEqual(Assign(l, ref, cfg), first) {
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
	p := timing.DefaultParams()
	ref := timing.Analyze(l, nil, p)
	cfg := Config{Mode: PowerAware}
	asg := Assign(l, ref, cfg)
	if len(asg.Volumes) != 0 || asg.TotalPower != 0 {
		t.Fatalf("empty design produced volumes: %+v", asg)
	}
	// Force Verify to fail so Repair actually reaches the offender lookup.
	asg.Target = -1
	a := Repair(l, asg, p, cfg)
	if a == nil {
		t.Fatal("Repair returned nil analysis")
	}
}

// TestRepairSingleModule covers the smallest non-degenerate design: a lone
// module sabotaged below reference must be raised back by Repair.
func TestRepairSingleModule(t *testing.T) {
	des := &netlist.Design{
		Name: "solo",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 50, H: 50, Power: 1, IntrinsicDelay: 1.0},
		},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(des).Pack()
	p := timing.DefaultParams()
	ref := timing.Analyze(l, nil, p)
	cfg := Config{Mode: PowerAware, TargetFactor: 1.0000001}
	asg := Assign(l, ref, cfg)
	low := Levels90nm()[0]
	for vi := range asg.Volumes {
		asg.setVolumeLevel(vi, low, l)
	}
	a := Repair(l, asg, p, cfg)
	if a.Critical > asg.Target+1e-9 {
		t.Fatalf("repair failed on single module: %v > %v", a.Critical, asg.Target)
	}
	if asg.LevelOf[0].DelayScale > 1.0 {
		t.Fatalf("module left below reference: %+v", asg.LevelOf[0])
	}
}
