package main

import (
	"math"
	"testing"

	"repro/internal/activity"
	"repro/internal/tsv"
)

// TestExploreTrends asserts the Sec. 3 findings on the table thermalmap
// prints, at grid 16 over draws 1..3. Scratch runs at grids 16 and 32 and
// base seeds 1, 100, 1000 and 7000 put none above islands by 0.07-0.16 and
// islands+regular above islands by at least 0.012 in every row. Which of
// max-density and islands is lowest flips between seeds at grid 16, so only
// the pair is pinned.
func TestExploreTrends(t *testing.T) {
	tab, err := explore(16, 4000, 4, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for tp, c := range tab[activity.GloballyUniform] {
		if c.rBottom != 0 || c.rTop != 0 {
			t.Errorf("globally-uniform/%v: r = %v/%v, want exactly 0", tp, c.rBottom, c.rTop)
		}
	}

	none := tab.nonUniformMean(tsv.PatternNone)
	islands := tab.nonUniformMean(tsv.PatternIslands)
	maxDensity := tab.nonUniformMean(tsv.PatternMaxDensity)
	if none-islands < 0.05 {
		t.Errorf("mean r: none %.3f, islands %.3f; want islands at least 0.05 lower", none, islands)
	}
	for _, tp := range tsv.AllPatterns() {
		if tp == tsv.PatternIslands || tp == tsv.PatternMaxDensity {
			continue
		}
		if r := tab.nonUniformMean(tp); r <= math.Max(islands, maxDensity) {
			t.Errorf("mean r: %v %.3f is not above islands %.3f and max-density %.3f", tp, r, islands, maxDensity)
		}
	}

	for _, pp := range activity.AllPowerPatterns() {
		if pp == activity.GloballyUniform {
			continue
		}
		lattice, bare := tab[pp][tsv.PatternIslandsPlusRegular].rBottom, tab[pp][tsv.PatternIslands].rBottom
		if lattice <= bare {
			t.Errorf("%v: islands+regular r %.3f not above islands %.3f", pp, lattice, bare)
		}
	}
}
