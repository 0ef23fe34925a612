package tsv

import (
	"math/rand"

	"repro/internal/geom"
)

// Pattern names the six TSV distributions of the paper's exploratory study
// (Sec. 3): "no TSVs; maximal TSV density ...; irregular TSVs; irregular
// TSVs along with regular TSVs; irregular groups of densely packed TSVs,
// i.e., TSV islands; and TSV islands along with regular TSVs."
type Pattern int

const (
	PatternNone Pattern = iota
	PatternMaxDensity
	PatternIrregular
	PatternIrregularPlusRegular
	PatternIslands
	PatternIslandsPlusRegular
	NumPatterns
)

func (p Pattern) String() string {
	switch p {
	case PatternNone:
		return "none"
	case PatternMaxDensity:
		return "max-density"
	case PatternIrregular:
		return "irregular"
	case PatternIrregularPlusRegular:
		return "irregular+regular"
	case PatternIslands:
		return "islands"
	case PatternIslandsPlusRegular:
		return "islands+regular"
	default:
		return "pattern?"
	}
}

// AllPatterns lists the six distributions in paper order.
func AllPatterns() []Pattern {
	return []Pattern{
		PatternNone, PatternMaxDensity, PatternIrregular,
		PatternIrregularPlusRegular, PatternIslands, PatternIslandsPlusRegular,
	}
}

// GeneratePattern builds a synthetic TSV plan of the given pattern for a
// die of outlineW x outlineH um. The rng drives irregular placements;
// regular placements are deterministic.
func GeneratePattern(p Pattern, outlineW, outlineH float64, rng *rand.Rand) *Plan {
	plan := &Plan{OutlineW: outlineW, OutlineH: outlineH}
	switch p {
	case PatternNone:
		// empty plan
	case PatternMaxDensity:
		// 100% of the area covered by vias and keep-out zones: one via per
		// pitch cell.
		for y := viaPitch / 2; y < outlineH; y += viaPitch {
			for x := viaPitch / 2; x < outlineW; x += viaPitch {
				plan.TSVs = append(plan.TSVs, TSV{Kind: Signal, Pos: geom.Point{X: x, Y: y}, Net: -1, Count: 1})
			}
		}
	case PatternIrregular:
		// Same via budget as the 16x16 regular lattice (x5 vias), but
		// scattered in random clumps: maximal structural heterogeneity.
		plan.addIrregular(160, 8, rng)
	case PatternIrregularPlusRegular:
		plan.addIrregular(80, 8, rng)
		plan.addRegular(16, 3)
	case PatternIslands:
		plan.addIslands(8, 160, rng)
	case PatternIslandsPlusRegular:
		plan.addIslands(5, 160, rng)
		plan.addRegular(16, 3)
	}
	return plan
}

// addIrregular scatters n clumps of `count` vias uniformly at random.
func (p *Plan) addIrregular(n, count int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		p.TSVs = append(p.TSVs, TSV{
			Kind:  Signal,
			Pos:   geom.Point{X: rng.Float64() * p.OutlineW, Y: rng.Float64() * p.OutlineH},
			Net:   -1,
			Count: count,
		})
	}
}

// addRegular places an n x n lattice of `count`-via groups: a homogeneous
// distribution (the paper's "regularly arranged TSVs").
func (p *Plan) addRegular(n, count int) {
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			p.TSVs = append(p.TSVs, TSV{
				Kind: Signal,
				Pos: geom.Point{
					X: (float64(i) + 0.5) / float64(n) * p.OutlineW,
					Y: (float64(j) + 0.5) / float64(n) * p.OutlineH,
				},
				Net:   -1,
				Count: count,
			})
		}
	}
}

// addIslands places nIslands dense groups of viasPerIsland vias at random
// locations.
func (p *Plan) addIslands(nIslands, viasPerIsland int, rng *rand.Rand) {
	for i := 0; i < nIslands; i++ {
		pos := geom.Point{
			X: (0.1 + 0.8*rng.Float64()) * p.OutlineW,
			Y: (0.1 + 0.8*rng.Float64()) * p.OutlineH,
		}
		p.TSVs = append(p.TSVs, TSV{Kind: Signal, Pos: pos, Net: -1, Count: viasPerIsland})
	}
}
