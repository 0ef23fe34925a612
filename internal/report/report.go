// Package report renders floorplanning results as terminal-friendly ASCII
// art: heatmaps of power and thermal grids with optional TSV overlays, and
// per-die floorplan drawings (the closest a CLI gets to the paper's Figure
// 2/4 map plots). The JSON result schema is tscfp.Result.
package report

import (
	"strings"

	"repro/internal/geom"
	"repro/internal/tsv"
)

// shades orders ASCII density characters light to dark.
const shades = " .:-=+*#%@"

// Heatmap renders a grid as terminal ASCII art, one character per cell,
// linearly binned between the grid's min and max. Row 0 (y=0) prints at
// the bottom, matching plot orientation.
func Heatmap(g *geom.Grid) string {
	lo, hi := g.Min(), g.Max()
	span := hi - lo
	var b strings.Builder
	for j := g.NY - 1; j >= 0; j-- {
		for i := 0; i < g.NX; i++ {
			idx := 0
			if span > 0 {
				idx = int((g.At(i, j) - lo) / span * float64(len(shades)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HeatmapWithTSVs renders like Heatmap but overlays TSV positions as 'o'
// (single vias) or 'O' (groups), mirroring the white dots of the paper's
// Figure 2.
func HeatmapWithTSVs(g *geom.Grid, plan *tsv.Plan) string {
	base := []byte(Heatmap(g))
	lineLen := g.NX + 1 // cells + newline
	for _, v := range plan.TSVs {
		i := int(v.Pos.X / plan.OutlineW * float64(g.NX))
		j := int(v.Pos.Y / plan.OutlineH * float64(g.NY))
		if i < 0 || i >= g.NX || j < 0 || j >= g.NY {
			continue
		}
		row := g.NY - 1 - j
		ch := byte('o')
		if v.Count > 1 {
			ch = 'O'
		}
		base[row*lineLen+i] = ch
	}
	return string(base)
}
