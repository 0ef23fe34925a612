package floorplan

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// fuzzDesign synthesizes a small stacked design whose module mix (hard and
// soft, varied shapes) is derived from the fuzz seed, so the packer sees
// different geometry regimes — tight packings, overhangs, skinny modules —
// across the corpus without depending on the benchmark generator. Up to 35
// modules over 2–3 dies puts well over rowStride positions on many dies, so
// repacks resume from snapshot rows past the first.
func fuzzDesign(rng *rand.Rand) *netlist.Design {
	nMods := 6 + rng.Intn(30)
	des := &netlist.Design{
		Name:     "fuzz",
		Dies:     2 + rng.Intn(2),
		OutlineW: 80 + rng.Float64()*80,
		OutlineH: 80 + rng.Float64()*80,
	}
	for i := 0; i < nMods; i++ {
		m := &netlist.Module{
			Name:  "m",
			W:     4 + rng.Float64()*40,
			H:     4 + rng.Float64()*40,
			Power: 0.01,
		}
		if rng.Intn(2) == 0 {
			m.Kind = netlist.Soft
			m.MinAspect = 0.3
			m.MaxAspect = 3
		} else {
			m.Kind = netlist.Hard
		}
		des.Modules = append(des.Modules, m)
	}
	return des
}

// FuzzPackDieFrom drives the prefix-resumed skyline packer (PackDieFromDiff
// + DiePacker snapshots) through random move sequences with rejections and
// cost-less undos interleaved, and checks the exact-diff contract the
// annealing loop's incremental evaluator builds on after every event:
//
//   - the incrementally maintained layout stays bit-identical to a
//     from-scratch Pack;
//   - each PackDiff's changed set equals a brute-force placement compare
//     against the pre-move layout;
//   - PackDiff.Rollback restores both the layout and the packer's snapshot
//     rows byte-exactly on rejected moves.
//
// The script bytes steer the protocol per move: bit 0 rejects the move after
// the partial repack (undo + journal rollback), bit 1 undoes it before any
// repack (the undo-before-Cost path: the packers never see the move). The
// seed drives the design shape and the move randomness.
func FuzzPackDieFrom(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02, 0x03})
	f.Add(int64(7), []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Add(int64(42), []byte{0x02, 0x00, 0x02, 0x01, 0x03, 0x00, 0x01})
	f.Add(int64(-3), []byte("\xff\x00\xaa\x55packer"))
	f.Add(int64(9001), []byte{0x00, 0x01, 0x00, 0x01, 0x02, 0x00, 0x01, 0x00, 0x00, 0x01, 0x03, 0x00, 0x01, 0x00, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		des := fuzzDesign(rng)
		fp := NewRandom(des, rng)
		lay := fp.Pack()
		packers := make([]*DiePacker, des.Dies)
		for d := range packers {
			packers[d] = &DiePacker{}
		}
		// Pre-move placement and packer-row snapshots for the brute-force
		// diff and rollback compares.
		preRects := make([]geom.Rect, len(lay.Rects))
		preDies := make([]int, len(lay.DieOf))
		preRows := make([][][]float64, des.Dies)
		diffs := make([]*PackDiff, 0, 2)
		repack := func(mv Move) {
			copy(preRects, lay.Rects)
			copy(preDies, lay.DieOf)
			diffs = diffs[:0]
			for i, d := range mv.Dies {
				preRows[d] = packerRows(packers[d])
				pd := &PackDiff{}
				fp.PackDieFromDiff(lay, d, mv.Starts[i], packers[d], pd)
				diffs = append(diffs, pd)
			}
		}
		check := func(step int, what string) {
			t.Helper()
			want := fp.Pack()
			for m := range want.Rects {
				if lay.Rects[m] != want.Rects[m] || lay.DieOf[m] != want.DieOf[m] {
					t.Fatalf("step %d (%s): module %d incremental %+v/die%d != full %+v/die%d",
						step, what, m, lay.Rects[m], lay.DieOf[m], want.Rects[m], want.DieOf[m])
				}
			}
		}
		// checkDiffExact pins each PackDiff's changed set against a
		// brute-force compare of lay vs the pre-move snapshot: every
		// reported module really changed, every real change is reported,
		// and no module is reported twice.
		checkDiffExact := func(step int) {
			t.Helper()
			reported := make(map[int]bool)
			for _, pd := range diffs {
				for k, m := range pd.Changed {
					if reported[m] {
						t.Fatalf("step %d: module %d reported changed twice", step, m)
					}
					reported[m] = true
					if pd.OldRects[k] != preRects[m] || pd.OldDies[k] != preDies[m] {
						t.Fatalf("step %d: module %d old placement %+v/die%d != pre-move %+v/die%d",
							step, m, pd.OldRects[k], pd.OldDies[k], preRects[m], preDies[m])
					}
				}
			}
			for m := range lay.Rects {
				changed := lay.Rects[m] != preRects[m] || lay.DieOf[m] != preDies[m]
				if changed != reported[m] {
					t.Fatalf("step %d: module %d brute-force changed=%v but reported=%v",
						step, m, changed, reported[m])
				}
			}
		}
		check(-1, "initial")
		for step, b := range script {
			mv, undo := fp.PerturbMove(rng)
			if b&2 != 0 {
				// Undo before any repack (the evaluator's undo-before-Cost
				// corner): the floorplan reverts, so the untouched layout and
				// packer snapshots describe it again.
				undo()
				check(step, "undo-before-repack")
				continue
			}
			repack(mv)
			checkDiffExact(step)
			check(step, "apply")
			if b&1 == 0 {
				for _, pd := range diffs {
					pd.Commit()
				}
				continue
			}
			// Rejection: undo the floorplan, then roll the journals back in
			// reverse — layout and packer rows must revert bit for bit.
			undo()
			for i := len(diffs) - 1; i >= 0; i-- {
				diffs[i].Rollback(lay)
			}
			for m := range lay.Rects {
				if lay.Rects[m] != preRects[m] || lay.DieOf[m] != preDies[m] {
					t.Fatalf("step %d: rollback left module %d at %+v/die%d, want %+v/die%d",
						step, m, lay.Rects[m], lay.DieOf[m], preRects[m], preDies[m])
				}
			}
			for _, d := range mv.Dies {
				if got := packerRows(packers[d]); !reflect.DeepEqual(got, preRows[d]) {
					t.Fatalf("step %d: rollback left die %d packer rows %v, want %v", step, d, got, preRows[d])
				}
			}
			check(step, "reject")
		}
		if !fp.CheckInvariants() {
			t.Fatal("floorplan invariants violated")
		}
	})
}

// packerRows deep-copies a packer's state: its packed length as a
// one-element row, then its snapshot rows out of the arenas, xs rows then
// ys rows.
func packerRows(dp *DiePacker) [][]float64 {
	rows := [][]float64{{float64(dp.n)}}
	for _, arena := range [][]float64{dp.xs, dp.ys} {
		for i := 0; i+1 < len(dp.off); i++ {
			rows = append(rows, append([]float64(nil), arena[dp.off[i]:dp.off[i+1]]...))
		}
	}
	return rows
}
