package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/thermal"
)

// makeEval builds an evaluator over n100 at a small grid, with or without
// the incremental caches.
func makeEval(t *testing.T, mode Mode, incremental bool, seed int64) *evaluator {
	t.Helper()
	des := bench.MustGenerate("n100")
	cfg := Config{Mode: mode, GridN: 16, Seed: seed}
	cfg.defaults()
	fast := thermal.Fast(thermal.DefaultConfig(16, 16, des.OutlineW, des.OutlineH, des.Dies), 0)
	rng := rand.New(rand.NewSource(seed))
	ev := &evaluator{fp: floorplan.NewRandom(des, rng), cfg: &cfg, fast: fast}
	if incremental {
		ev.incr = newIncrState()
	}
	return ev
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestIncrementalMatchesFullOverRandomCycles is the epsilon contract: a full
// and an incremental evaluator driven through the same 1k perturb/undo
// cycles must agree on every cost to 1e-9 (relative). Undos are interleaved
// so the journal rollback path is exercised as hard as the apply path.
func TestIncrementalMatchesFullOverRandomCycles(t *testing.T) {
	for _, mode := range []Mode{PowerAware, TSCAware} {
		cycles := 1000
		if mode == PowerAware {
			cycles = 300 // the PA path is a strict subset; keep the suite fast
		}
		full := makeEval(t, mode, false, 11)
		inc := makeEval(t, mode, true, 11)
		mrFull := rand.New(rand.NewSource(99))
		mrInc := rand.New(rand.NewSource(99))
		dec := rand.New(rand.NewSource(7))

		if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
			t.Fatalf("%v: initial cost differs by %g", mode, d)
		}
		for i := 0; i < cycles; i++ {
			undoFull := full.Perturb(mrFull)
			undoInc := inc.Perturb(mrInc)
			cf, ci := full.Cost(), inc.Cost()
			if d := relDiff(ci, cf); d > 1e-9 {
				t.Fatalf("%v cycle %d: incremental %v vs full %v (rel diff %g)", mode, i, ci, cf, d)
			}
			if dec.Float64() < 0.5 {
				undoFull()
				undoInc()
			}
		}
		// Post-undo state must also agree (journal rollback correctness).
		if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
			t.Fatalf("%v: post-cycle cost differs by %g", mode, d)
		}
		st := inc.stats
		if st.IncrementalEvals == 0 || st.NetsReused == 0 || st.DiesReused+st.ResponsesReused == 0 {
			t.Fatalf("incremental caches never engaged: %+v", st)
		}
	}
}

// TestCostCrossCheckFlag exercises the built-in debug cross-check: it panics
// on divergence, so surviving a few hundred mixed cycles (and recording a
// sub-epsilon max error) is the assertion.
func TestCostCrossCheckFlag(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 21)
	ev.check = true
	rng := rand.New(rand.NewSource(5))
	dec := rand.New(rand.NewSource(6))
	ev.Cost()
	for i := 0; i < 200; i++ {
		undo := ev.Perturb(rng)
		ev.Cost()
		if dec.Float64() < 0.4 {
			undo()
		}
	}
	if ev.stats.CrossChecks < 200 {
		t.Fatalf("cross-checks did not run: %+v", ev.stats)
	}
	if ev.stats.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cross-check error too large: %g", ev.stats.MaxCrossCheckError)
	}
}

// TestIncrementalCostCrossCheckOverJournaledRun is the acceptance contract
// for the incremental cost over a long journaled run: 1k perturb/cost/undo
// moves with the cross-check enabled must keep every incremental cost within
// 1e-9 of the full recompute and the cached layout and changed set exact
// (crossCheck panics otherwise), while the loop's critical-delay term comes
// from a full STA pass over the cached net delays on every evaluation.
func TestIncrementalCostCrossCheckOverJournaledRun(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 51)
	ev.check = true
	rng := rand.New(rand.NewSource(12))
	dec := rand.New(rand.NewSource(13))
	ev.Cost()
	for i := 0; i < 1000; i++ {
		undo := ev.Perturb(rng)
		ev.Cost()
		if dec.Float64() < 0.5 {
			undo()
		}
	}
	st := ev.stats
	if st.CrossChecks != st.Evals {
		t.Fatalf("cross-checked %d of %d evaluations", st.CrossChecks, st.Evals)
	}
	if st.STARebuilds != st.Evals+st.VoltRefreshes || st.STAPatches != 0 {
		t.Fatalf("STA passes %d (patches %d), want one per evaluation plus one per voltage refresh: %+v",
			st.STARebuilds, st.STAPatches, st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}

// TestUndoBeforeCostIsSafe covers the protocol corner where a move is undone
// without an intervening Cost call: the caches must not go stale.
func TestUndoBeforeCostIsSafe(t *testing.T) {
	ev := makeEval(t, PowerAware, true, 31)
	ref := makeEval(t, PowerAware, false, 31)
	rng := rand.New(rand.NewSource(8))
	rngRef := rand.New(rand.NewSource(8))
	ev.Cost()
	ref.Cost()
	for i := 0; i < 20; i++ {
		ev.Perturb(rng)()     // apply + immediately undo, no Cost between
		ref.Perturb(rngRef)() // keep the reference rng in lockstep
		if d := relDiff(ev.Cost(), ref.Cost()); d > 1e-9 {
			t.Fatalf("cycle %d: cost drifted by %g after cost-less undo", i, d)
		}
	}
}

// TestResetJournalRollback covers the reset journal: a move perturbed in
// before the first Cost folds into the initial full build, so undoing it
// drops the caches wholesale, and the next Cost must rebuild them to agree
// with the full evaluator — as must the journaled moves after it.
func TestResetJournalRollback(t *testing.T) {
	inc := makeEval(t, TSCAware, true, 61)
	inc.check = true
	full := makeEval(t, TSCAware, false, 61)
	rngInc := rand.New(rand.NewSource(4))
	rngFull := rand.New(rand.NewSource(4))
	agree := func(what string) {
		t.Helper()
		if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
			t.Fatalf("%s: cost differs by %g", what, d)
		}
	}
	undoInc, undoFull := inc.Perturb(rngInc), full.Perturb(rngFull)
	agree("first build with the move folded in")
	if !inc.incr.journal.reset {
		t.Fatal("first build after a Perturb did not record a reset journal")
	}
	undoInc()
	undoFull()
	if inc.incr.lay != nil {
		t.Fatal("reset rollback kept the cached layout")
	}
	agree("rebuild after the reset rollback")
	for i := 0; i < 40; i++ {
		undoInc, undoFull = inc.Perturb(rngInc), full.Perturb(rngFull)
		agree(fmt.Sprintf("move %d", i))
		if i%2 == 1 {
			undoInc()
			undoFull()
		}
	}
}

// degenerateNetDesign is a hand-built stack whose netlist contains the
// degenerate shapes Design.Validate rejects — a single-pin net and an empty
// net — alongside real nets and a terminal net. The evaluators must agree
// on it anyway: degenerate nets carry zero WL and zero delay in both paths.
func degenerateNetDesign() *netlist.Design {
	mod := func(name string, w, h, p, d float64) *netlist.Module {
		return &netlist.Module{Name: name, Kind: netlist.Hard, W: w, H: h, Power: p, IntrinsicDelay: d}
	}
	return &netlist.Design{
		Name: "degenerate", Dies: 2, OutlineW: 400, OutlineH: 400,
		Modules: []*netlist.Module{
			mod("a", 80, 60, 0.4, 0.2),
			mod("b", 60, 90, 0.6, 0.3),
			mod("c", 70, 70, 0.5, 0.25),
			mod("d", 90, 50, 0.3, 0.15),
			mod("e", 50, 50, 0.2, 0.1),
			mod("f", 60, 60, 0.7, 0.35),
		},
		Nets: []*netlist.Net{
			{Name: "ab", Modules: []int{0, 1}},
			{Name: "bcd", Modules: []int{1, 2, 3}},
			{Name: "ef", Modules: []int{4, 5}},
			{Name: "af", Modules: []int{0, 5}},
			{Name: "single", Modules: []int{2}},                    // degree 1: degenerate
			{Name: "empty"},                                        // degree 0: degenerate
			{Name: "term", Modules: []int{3}, Terminals: []int{0}}, // STA-skipped, real WL
		},
		Terminals: []*netlist.Terminal{{Name: "p0", X: 0, Y: 200}},
	}
}

// TestDegenerateNetsAgreeAcrossEvaluators drives the full and incremental
// evaluators over a design containing single-pin and empty nets: costs must
// agree to 1e-9 throughout, the cached WL/delay of the degenerate nets must
// be exactly zero, and no net may carry a negative delay (the un-guarded
// Elmore model gave empty nets sinkPins = -1 and a negative delay).
func TestDegenerateNetsAgreeAcrossEvaluators(t *testing.T) {
	des := degenerateNetDesign()
	build := func(incremental bool) *evaluator {
		cfg := Config{Mode: TSCAware, GridN: 16, Seed: 1}
		cfg.defaults()
		fast := thermal.Fast(thermal.DefaultConfig(16, 16, des.OutlineW, des.OutlineH, des.Dies), 0)
		rng := rand.New(rand.NewSource(1))
		ev := &evaluator{fp: floorplan.NewRandom(des, rng), cfg: &cfg, fast: fast}
		if incremental {
			ev.incr = newIncrState()
		}
		return ev
	}
	full := build(false)
	inc := build(true)
	mrFull := rand.New(rand.NewSource(21))
	mrInc := rand.New(rand.NewSource(21))
	dec := rand.New(rand.NewSource(22))
	if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
		t.Fatalf("initial cost differs by %g", d)
	}
	for i := 0; i < 200; i++ {
		undoFull := full.Perturb(mrFull)
		undoInc := inc.Perturb(mrInc)
		cf, ci := full.Cost(), inc.Cost()
		if d := relDiff(ci, cf); d > 1e-9 {
			t.Fatalf("cycle %d: incremental %v vs full %v (rel diff %g)", i, ci, cf, d)
		}
		if dec.Float64() < 0.5 {
			undoFull()
			undoInc()
		}
	}
	ic := inc.incr
	for ni, n := range des.Nets {
		if n.Degree() < 2 {
			if ic.netWL[ni] != 0 || ic.netDelay[ni] != 0 || ic.netLen[ni] != 0 {
				t.Fatalf("degenerate net %q cached WL/delay not zero: wl=%v delay=%v",
					n.Name, ic.netWL[ni], ic.netDelay[ni])
			}
		}
		if ic.netDelay[ni] < 0 {
			t.Fatalf("net %q has negative cached delay %v", n.Name, ic.netDelay[ni])
		}
	}
}

// TestIncrementalMoveAllocations pins the anneal loop's allocation diet: a
// warmed incremental evaluator (TSC mode, grid 32, serial blur) allocates
// under 8 KB per perturb/Cost move, with every other move undone. The
// packer rows, pack diffs, move journal, map and response buffers and blur
// scratch are all reused, so what remains is the move record and the undo
// closures. VoltEvery is set past the measured window: the voltage
// assigner, whose refresh allocates, runs only on the first evaluation.
func TestIncrementalMoveAllocations(t *testing.T) {
	const gridN, warm, moves, budget = 32, 100, 200, 8 << 10
	for _, name := range []string{"n100", "ibm01"} {
		des := bench.MustGenerate(name)
		cfg := Config{Mode: TSCAware, GridN: gridN, Seed: 1, VoltEvery: 1 << 30}
		cfg.defaults()
		fast := thermal.Fast(thermal.DefaultConfig(gridN, gridN, des.OutlineW, des.OutlineH, des.Dies), 1)
		rng := rand.New(rand.NewSource(1))
		ev := &evaluator{fp: floorplan.NewRandom(des, rng), cfg: &cfg, fast: fast, incr: newIncrState()}
		move := func(i int) {
			undo := ev.Perturb(rng)
			ev.Cost()
			if i%2 == 1 {
				undo()
			}
		}
		ev.Cost()
		for i := 0; i < warm; i++ {
			move(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < moves; i++ {
			move(i)
		}
		runtime.ReadMemStats(&after)
		if ev.stats.VoltRefreshes != 1 {
			t.Fatalf("%s: %d voltage refreshes, want only the first evaluation's", name, ev.stats.VoltRefreshes)
		}
		perMove := (after.TotalAlloc - before.TotalAlloc) / moves
		t.Logf("%s: %d bytes allocated per move", name, perMove)
		if perMove > budget {
			t.Errorf("%s: %d bytes allocated per move, want at most %d", name, perMove, budget)
		}
	}
}
