// Package thermal implements the thermal analysis substrate the paper uses
// HotSpot 6.0 for: a finite-difference model of a two-die, face-to-back,
// TSV-based 3D IC with a heatsink on top and a secondary heat path into the
// package below. It provides
//
//   - a detailed steady-state solver (successive over-relaxation on the
//     discretized heat equation), used to verify leakage correlations after
//     floorplanning and to evaluate activity samples (paper Sec. 6.2, 7);
//   - a transient solver (implicit Euler on the same operator), used to
//     reproduce the time-scale separation of Figure 1;
//   - a fast power-blurring estimator calibrated against the detailed
//     solver, mirroring Corblivar's in-loop thermal analysis (fast.go).
//     Calibration depends only on the Config, so Fast keeps one
//     process-wide table of calibrations. Its key is the whole Config
//     (grid, outline, dies, ambient, both resistances and every layer);
//     each entry is filled once, by the key's first request, and the
//     table holds at most fastTableBound entries, evicting the oldest.
//     Every caller gets its own estimator with its own blur worker bound.
//
// TSVs enter the model exactly as the paper describes them ("heat-pipes
// between stacked dies"): each cell of the inter-die bond layer carries a
// copper area fraction that raises its vertical (and, weakly, lateral)
// conductivity by linear material mixing.
package thermal

import (
	"fmt"

	"repro/internal/geom"
)

// Material conductivities in W/(m K) and volumetric heat capacities in
// J/(m^3 K). Values follow HotSpot's defaults and common 3D-IC literature.
const (
	KSilicon   = 120.0
	KCopper    = 400.0
	KBEOL      = 2.25 // dielectric/metal stack, effective
	KBond      = 0.25 // BCB adhesive bond
	KILD       = 1.4  // SiO2 inter-layer dielectric (monolithic tiers)
	KTIM       = 4.0
	KPackage   = 5.0 // effective board/underfill path
	CapSilicon = 1.75e6
	CapCopper  = 3.4e6
	CapBEOL    = 2.0e6
	CapBond    = 2.2e6
	CapTIM     = 4.0e6
	CapPackage = 2.0e6
)

// Layer describes one slab of the stack.
type Layer struct {
	Name      string
	Thickness float64 // m
	K         float64 // W/(m K), isotropic base conductivity
	Cap       float64 // J/(m^3 K)
	// PowerDie >= 0 marks this as the active layer of that die (0 = bottom).
	PowerDie int
	// TSVMixed marks the layer whose conductivity is modified per cell by
	// the TSV copper fraction.
	TSVMixed bool
	// TSVGap identifies which inter-die gap's TSV map applies to this
	// layer (gap g sits between die g and die g+1); -1 when TSVMixed is
	// false.
	TSVGap int
}

// Config describes the simulated stack and discretization.
type Config struct {
	NX, NY int     // lateral grid resolution
	ChipW  float64 // um
	ChipH  float64 // um
	Dies   int

	Ambient float64 // K

	// RSink is the total convective resistance heatsink->ambient in K/W
	// (HotSpot's r_convec, default 0.1). RPackage is the secondary path
	// board->ambient, much weaker.
	RSink    float64
	RPackage float64

	// Layers overrides the auto-built stack when non-nil.
	Layers []Layer
}

// DefaultConfig returns the stack used throughout the reproduction: two dies
// face-to-back, heatsink above the top die, secondary path to the package.
func DefaultConfig(nx, ny int, chipWUM, chipHUM float64, dies int) Config {
	return Config{
		NX: nx, NY: ny,
		ChipW: chipWUM, ChipH: chipHUM,
		Dies:     dies,
		Ambient:  293.0,
		RSink:    0.1,
		RPackage: 5.0,
	}
}

// MonolithicConfig returns the stack for a monolithic 3D IC — the other
// integration flavour the paper's footnote 1 and conclusion name as future
// work. Tiers are fabricated sequentially on one substrate: upper tiers are
// ultra-thin, separated by a ~1 um inter-layer dielectric (ILD) crossed by
// nano-scale monolithic inter-tier vias (MIVs) instead of 30 um bond layers
// with micro-scale TSVs. The dramatically thinner separation couples the
// tiers far more strongly, which is why "thermal maps would be considerably
// different for other 3D integration flavors".
//
// The TSVMixed/TSVGap machinery carries over: gap g's copper-fraction map
// now describes MIV density in ILD g.
func MonolithicConfig(nx, ny int, chipWUM, chipHUM float64, tiers int) Config {
	um := 1e-6
	ls := []Layer{
		{Name: "package", Thickness: 500 * um, K: KPackage, Cap: CapPackage, PowerDie: -1, TSVGap: -1},
		{Name: "bulk", Thickness: 150 * um, K: KSilicon, Cap: CapSilicon, PowerDie: -1, TSVGap: -1},
	}
	for t := 0; t < tiers; t++ {
		ls = append(ls, Layer{
			Name: fmt.Sprintf("tier%d-active", t), Thickness: 2 * um,
			K: KSilicon, Cap: CapSilicon, PowerDie: t, TSVGap: -1,
		})
		if t < tiers-1 {
			// ILD with MIVs: thin oxide, locally raised by copper fraction.
			ls = append(ls, Layer{
				Name: fmt.Sprintf("ild%d", t), Thickness: 1 * um,
				K: KILD, Cap: CapBEOL, PowerDie: -1, TSVMixed: true, TSVGap: t,
			})
		}
	}
	ls = append(ls,
		Layer{Name: "beol", Thickness: 12 * um, K: KBEOL, Cap: CapBEOL, PowerDie: -1, TSVGap: -1},
		Layer{Name: "tim", Thickness: 20 * um, K: KTIM, Cap: CapTIM, PowerDie: -1, TSVGap: -1},
		Layer{Name: "spreader", Thickness: 1000 * um, K: KCopper, Cap: CapCopper, PowerDie: -1, TSVGap: -1},
		Layer{Name: "sink", Thickness: 6900 * um, K: KCopper, Cap: CapCopper, PowerDie: -1, TSVGap: -1},
	)
	return Config{
		NX: nx, NY: ny,
		ChipW: chipWUM, ChipH: chipHUM,
		Dies:     tiers,
		Ambient:  293.0,
		RSink:    0.1,
		RPackage: 5.0,
		Layers:   ls,
	}
}

// buildLayers constructs the physical stack bottom-up.
func buildLayers(dies int) []Layer {
	um := 1e-6
	ls := []Layer{
		{Name: "package", Thickness: 500 * um, K: KPackage, Cap: CapPackage, PowerDie: -1, TSVGap: -1},
	}
	for d := 0; d < dies; d++ {
		bulk := 150 * um
		if d > 0 {
			bulk = 50 * um // upper dies are thinned for TSVs
		}
		// Inter-die TSV stacks traverse the lower die's BEOL and the bond
		// layer on their way into the upper die's thinned bulk, so both are
		// marked TSV-mixed (their conductivity rises with the local copper
		// fraction).
		hasTSVs := d < dies-1
		gap := -1
		if hasTSVs {
			gap = d
		}
		ls = append(ls,
			Layer{Name: fmt.Sprintf("die%d-bulk", d), Thickness: bulk, K: KSilicon, Cap: CapSilicon, PowerDie: -1, TSVGap: -1},
			Layer{Name: fmt.Sprintf("die%d-active", d), Thickness: 2 * um, K: KSilicon, Cap: CapSilicon, PowerDie: d, TSVGap: -1},
			Layer{Name: fmt.Sprintf("die%d-beol", d), Thickness: 12 * um, K: KBEOL, Cap: CapBEOL, PowerDie: -1, TSVMixed: hasTSVs, TSVGap: gap},
		)
		if hasTSVs {
			ls = append(ls, Layer{
				Name: fmt.Sprintf("bond%d", d), Thickness: 30 * um,
				K: KBond, Cap: CapBond, PowerDie: -1, TSVMixed: true, TSVGap: gap,
			})
		}
	}
	ls = append(ls,
		Layer{Name: "tim", Thickness: 20 * um, K: KTIM, Cap: CapTIM, PowerDie: -1, TSVGap: -1},
		Layer{Name: "spreader", Thickness: 1000 * um, K: KCopper, Cap: CapCopper, PowerDie: -1, TSVGap: -1},
		Layer{Name: "sink", Thickness: 6900 * um, K: KCopper, Cap: CapCopper, PowerDie: -1, TSVGap: -1},
	)
	return ls
}

// Stack is a ready-to-solve discretized model. Build with NewStack, then set
// power maps (and optionally a TSV map) and call SolveSteady.
type Stack struct {
	Cfg    Config
	Layers []Layer

	nx, ny, nl int
	dx, dy     float64 // m
	area       float64 // cell area m^2

	// Effective per-cell conductivities for TSV-mixed layers; nil entries
	// mean the layer's base K applies everywhere.
	kCell [][]float64

	// Conductances (W/K). gE[idx]: east link, gN[idx]: north link,
	// gU[idx]: up link to the next layer. gAmb[idx]: link to ambient.
	gE, gN, gU, gAmb []float64
	diag             []float64

	power []float64 // W per cell (only active layers non-zero)

	dirty bool // conductances need rebuild (TSV map changed)
	// tsvGaps[g] is the copper-fraction map of inter-die gap g (between
	// die g and die g+1); nil entries mean no TSVs in that gap.
	tsvGaps []*geom.Grid
}

// NewStack builds the discretized model for cfg.
func NewStack(cfg Config) *Stack {
	if cfg.NX <= 1 || cfg.NY <= 1 {
		panic("thermal: grid must be at least 2x2")
	}
	if cfg.Dies < 1 {
		panic("thermal: need at least one die")
	}
	layers := cfg.Layers
	if layers == nil {
		layers = buildLayers(cfg.Dies)
	}
	s := &Stack{
		Cfg:    cfg,
		Layers: layers,
		nx:     cfg.NX, ny: cfg.NY, nl: len(layers),
		dx:    cfg.ChipW * 1e-6 / float64(cfg.NX),
		dy:    cfg.ChipH * 1e-6 / float64(cfg.NY),
		kCell: make([][]float64, len(layers)),
	}
	s.area = s.dx * s.dy
	n := s.nx * s.ny * s.nl
	s.gE = make([]float64, n)
	s.gN = make([]float64, n)
	s.gU = make([]float64, n)
	s.gAmb = make([]float64, n)
	s.diag = make([]float64, n)
	s.power = make([]float64, n)
	s.rebuild()
	return s
}

// idx maps (layer, row, col) to the flat index.
func (s *Stack) idx(l, j, i int) int { return (l*s.ny+j)*s.nx + i }

// NumCells returns the total unknown count.
func (s *Stack) NumCells() int { return s.nx * s.ny * s.nl }

// activeLayer returns the layer index of die d's active layer.
func (s *Stack) activeLayer(d int) int {
	for l, ly := range s.Layers {
		if ly.PowerDie == d {
			return l
		}
	}
	panic(fmt.Sprintf("thermal: no active layer for die %d", d))
}

// kAt returns the effective conductivity of layer l at cell (i, j).
func (s *Stack) kAt(l, j, i int) float64 {
	if s.kCell[l] != nil {
		return s.kCell[l][j*s.nx+i]
	}
	return s.Layers[l].K
}

// SetTSVMap installs one TSV copper-fraction map (values in [0,1], cell
// area fraction occupied by TSV copper) for EVERY inter-die gap — the
// convenient form for two-die stacks, where there is exactly one gap.
// Pass nil to clear all gaps.
func (s *Stack) SetTSVMap(frac *geom.Grid) {
	if frac != nil && (frac.NX != s.nx || frac.NY != s.ny) {
		panic("thermal: TSV map dimensions must match the stack grid")
	}
	s.tsvGaps = make([]*geom.Grid, s.Gaps())
	for g := range s.tsvGaps {
		s.tsvGaps[g] = frac
	}
	s.dirty = true
}

// SetTSVGapMap installs the copper-fraction map of one inter-die gap (gap g
// sits between die g and die g+1). Pass nil to clear that gap.
func (s *Stack) SetTSVGapMap(gap int, frac *geom.Grid) {
	if gap < 0 || gap >= s.Gaps() {
		panic(fmt.Sprintf("thermal: gap %d out of range (stack has %d)", gap, s.Gaps()))
	}
	if frac != nil && (frac.NX != s.nx || frac.NY != s.ny) {
		panic("thermal: TSV map dimensions must match the stack grid")
	}
	if s.tsvGaps == nil {
		s.tsvGaps = make([]*geom.Grid, s.Gaps())
	}
	s.tsvGaps[gap] = frac
	s.dirty = true
}

// Gaps returns the number of inter-die gaps (dies - 1).
func (s *Stack) Gaps() int { return s.Cfg.Dies - 1 }

// SetDiePower installs die d's power map (Watts per cell).
func (s *Stack) SetDiePower(d int, g *geom.Grid) {
	if g.NX != s.nx || g.NY != s.ny {
		panic("thermal: power map dimensions must match the stack grid")
	}
	l := s.activeLayer(d)
	base := s.idx(l, 0, 0)
	copy(s.power[base:base+s.nx*s.ny], g.Data)
}

// TotalPower returns the injected power in W.
func (s *Stack) TotalPower() float64 {
	t := 0.0
	for _, p := range s.power {
		t += p
	}
	return t
}

// rebuild recomputes effective conductivities and all conductances.
func (s *Stack) rebuild() {
	// Effective conductivities for TSV-mixed layers.
	for l := range s.Layers {
		var frac *geom.Grid
		if s.Layers[l].TSVMixed && s.tsvGaps != nil {
			if g := s.Layers[l].TSVGap; g >= 0 && g < len(s.tsvGaps) {
				frac = s.tsvGaps[g]
			}
		}
		if frac == nil {
			s.kCell[l] = nil
			continue
		}
		kc := make([]float64, s.nx*s.ny)
		for c := range kc {
			f := frac.Data[c]
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			// Vertical mixing is linear in area fraction (parallel paths);
			// we use the same effective value laterally, which slightly
			// overestimates lateral spreading but keeps the operator
			// isotropic per cell. TSVs dominate vertically regardless
			// because KCopper >> KBond.
			kc[c] = f*KCopper + (1-f)*s.Layers[l].K
		}
		s.kCell[l] = kc
	}

	nCells := s.nx * s.ny
	gSinkCell := 1.0 / (s.Cfg.RSink * float64(nCells))
	gPkgCell := 1.0 / (s.Cfg.RPackage * float64(nCells))

	for l := 0; l < s.nl; l++ {
		t := s.Layers[l].Thickness
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				id := s.idx(l, j, i)
				k := s.kAt(l, j, i)
				// East link: harmonic mean between this cell and (i+1, j).
				if i+1 < s.nx {
					k2 := s.kAt(l, j, i+1)
					s.gE[id] = t * s.dy / (s.dx/2/k + s.dx/2/k2)
				} else {
					s.gE[id] = 0
				}
				if j+1 < s.ny {
					k2 := s.kAt(l, j+1, i)
					s.gN[id] = t * s.dx / (s.dy/2/k + s.dy/2/k2)
				} else {
					s.gN[id] = 0
				}
				// Up link to layer l+1.
				if l+1 < s.nl {
					t2 := s.Layers[l+1].Thickness
					k2 := s.kAt(l+1, j, i)
					s.gU[id] = s.area / (t/2/k + t2/2/k2)
				} else {
					s.gU[id] = 0
				}
				// Ambient links: sink on top layer, package on bottom layer.
				switch l {
				case s.nl - 1:
					s.gAmb[id] = gSinkCell
				case 0:
					s.gAmb[id] = gPkgCell
				default:
					s.gAmb[id] = 0
				}
			}
		}
	}
	// Diagonal = sum of incident conductances.
	for l := 0; l < s.nl; l++ {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				id := s.idx(l, j, i)
				d := s.gAmb[id] + s.gE[id] + s.gN[id] + s.gU[id]
				if i > 0 {
					d += s.gE[id-1]
				}
				if j > 0 {
					d += s.gN[id-s.nx]
				}
				if l > 0 {
					d += s.gU[id-s.nx*s.ny]
				}
				s.diag[id] = d
			}
		}
	}
	s.dirty = false
}
