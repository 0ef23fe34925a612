package report

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/tsv"
)

func TestHeatmapShape(t *testing.T) {
	g := geom.NewGrid(8, 4)
	g.Set(0, 0, 1)
	h := Heatmap(g)
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rows %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != 8 {
			t.Fatalf("row length %d", len(l))
		}
	}
	// Hottest cell (0,0) renders at bottom-left as the darkest shade.
	if lines[3][0] != '@' {
		t.Fatalf("expected '@' at bottom-left, got %q", lines[3][0])
	}
}

func TestHeatmapConstant(t *testing.T) {
	g := geom.NewGrid(3, 3)
	g.Fill(5)
	h := Heatmap(g)
	if strings.Trim(h, " \n") != "" {
		t.Fatalf("constant map should render blank, got %q", h)
	}
}

func TestHeatmapWithTSVs(t *testing.T) {
	g := geom.NewGrid(8, 8)
	plan := &tsv.Plan{OutlineW: 800, OutlineH: 800}
	plan.AddDummyGap(0, geom.Point{X: 50, Y: 50}, 4)   // cell (0,0) -> bottom-left
	plan.AddDummyGap(0, geom.Point{X: 750, Y: 750}, 1) // cell (7,7) -> top-right
	h := HeatmapWithTSVs(g, plan)
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if lines[7][0] != 'O' {
		t.Fatalf("group marker missing: %q", lines[7][0])
	}
	if lines[0][7] != 'o' {
		t.Fatalf("single marker missing: %q", lines[0][7])
	}
}
