package volt

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// TestAssignerRefreshMatchesAssignOverPerturbations is the engine's
// equivalence contract: driven through hundreds of random floorplan
// perturbations, every Refresh must produce an assignment strictly
// equivalent (same volumes, same levels, power within 1e-12) to a
// from-scratch Assign on the same layout and timing.
func TestAssignerRefreshMatchesAssignOverPerturbations(t *testing.T) {
	for _, mode := range []Mode{PowerAware, TSCAware} {
		des := bench.MustGenerate("n100")
		rng := rand.New(rand.NewSource(17))
		fp := floorplan.NewRandom(des, rng)
		cfg := Config{Mode: mode}
		p := timing.DefaultParams()

		first := fp.Pack()
		a := NewAssigner(cfg)
		if err := Equivalent(a.Assign(first, timing.Analyze(first, nil, p)),
			Assign(first, timing.Analyze(first, nil, p), cfg), 0); err != nil {
			t.Fatalf("%v: initial assignment differs: %v", mode, err)
		}
		for i := 0; i < 150; i++ {
			fp.Perturb(rng)
			l := fp.Pack()
			ref := timing.Analyze(l, nil, p)
			got := a.Refresh(l, ref)
			want := Assign(l, ref, cfg)
			if err := Equivalent(got, want, 1e-12); err != nil {
				t.Fatalf("%v: step %d: incremental refresh diverged: %v", mode, i, err)
			}
		}
		st := a.Stats()
		if st.CandidatesReused == 0 {
			t.Fatalf("%v: assigner never reused a candidate tree: %+v", mode, st)
		}
		if st.CandidatesRegrown == 0 {
			t.Fatalf("%v: assigner never regrew a candidate tree: %+v", mode, st)
		}
	}
}

// TestAssignerUnchangedInputsServeCache pins the fast path: with no
// placement change and unchanged timing, Refresh must not regrow anything.
func TestAssignerUnchangedInputsServeCache(t *testing.T) {
	des := bench.MustGenerate("n100")
	l := floorplan.NewRandom(des, rand.New(rand.NewSource(3))).Pack()
	ref := timing.Analyze(l, nil, timing.DefaultParams())
	a := NewAssigner(Config{Mode: TSCAware})
	first := a.Assign(l, ref)
	before := a.Stats()
	second := a.Refresh(l, ref)
	after := a.Stats()
	if err := Equivalent(first, second, 0); err != nil {
		t.Fatalf("cached refresh differs: %v", err)
	}
	if regrown := after.CandidatesRegrown - before.CandidatesRegrown; regrown != 0 {
		t.Fatalf("no-op refresh regrew %d candidates", regrown)
	}
	if reused := after.CandidatesReused - before.CandidatesReused; reused != len(l.Design.Modules) {
		t.Fatalf("no-op refresh reused %d candidates, want %d", reused, len(l.Design.Modules))
	}
}

// TestAssignerRefreshJumpsToUnrelatedFloorplan covers the reset-rollback
// path of the incremental evaluator, which drops every other cache and
// hands the assigner a layout unrelated to its last one: the engine must
// resynchronize by itself, without a full rebuild, and still match a fresh
// Assign exactly.
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
			got := a.Refresh(l, ref)
			if err := Equivalent(got, Assign(l, ref, cfg), 0); err != nil {
				t.Fatalf("%v: seed %d: refresh after the jump differs: %v", mode, seed, err)
			}
		}
		if st := a.Stats(); st.FullRebuilds != 1 || st.CandidatesRegrown <= len(des.Modules) {
			t.Fatalf("%v: jumps were not served by diffing (want 1 rebuild and regrown trees): %+v", mode, st)
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
			if err := Equivalent(Assign(l, ref, cfg), first, 0); err != nil {
				t.Fatalf("%v: call %d differs: %v", mode, i+1, err)
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
