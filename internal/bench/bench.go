// Package bench generates the block-level benchmarks of the paper's Table 1.
//
// The original GSRC (n100/n200/n300) and IBM-HB+ (ibm01/ibm03/ibm07) files
// are not redistributable inside this offline module, so we synthesize
// deterministic stand-ins that match every column of Table 1: the module
// count and hard/soft mix, the footprint scale factor, the net count, the
// terminal-pin count, the fixed die outline, and the 1.0 V power budget.
// The paper itself scales the originals ("we scale up the modules'
// footprints in order to obtain sufficiently large dies"), so the
// experiments depend on these aggregate properties rather than the exact
// original geometry.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/netlist"
)

// Spec captures one Table 1 row plus the generation knobs.
type Spec struct {
	Name        string
	HardModules int
	SoftModules int
	ScaleFactor float64 // module footprint scale factor (Table 1)
	Nets        int
	Terminals   int
	OutlineMM2  float64 // per-die outline area in mm^2 (Table 1)
	PowerW      float64 // total power at 1.0 V (Table 1)
	Dies        int

	// Utilization is the target module-area / total-placement-area ratio.
	// Table 1 does not fix it; 0 selects the default.
	Utilization float64

	// SensitiveFraction of modules are flagged security-critical (attack
	// targets). 0 selects the default of 5%.
	SensitiveFraction float64

	Seed int64
}

// DefaultUtilization is the packing difficulty used when Spec.Utilization is
// zero. Fixed-outline 3D floorplanning in the paper is "practical yet
// challenging"; 0.55 across two dies reproduces that regime while staying
// solvable in bounded annealing time.
const DefaultUtilization = 0.55

// Table1 returns the specs for all six benchmarks of the paper, in paper
// order.
func Table1() []Spec {
	return []Spec{
		{Name: "n100", HardModules: 0, SoftModules: 100, ScaleFactor: 10, Nets: 885, Terminals: 334, OutlineMM2: 16, PowerW: 7.83, Dies: 2, Seed: 1001},
		{Name: "n200", HardModules: 0, SoftModules: 200, ScaleFactor: 10, Nets: 1585, Terminals: 564, OutlineMM2: 16, PowerW: 7.84, Dies: 2, Seed: 1002},
		{Name: "n300", HardModules: 0, SoftModules: 300, ScaleFactor: 10, Nets: 1893, Terminals: 569, OutlineMM2: 23.04, PowerW: 13.05, Dies: 2, Seed: 1003},
		{Name: "ibm01", HardModules: 246, SoftModules: 665, ScaleFactor: 2, Nets: 5829, Terminals: 246, OutlineMM2: 25, PowerW: 4.02, Dies: 2, Seed: 2001},
		{Name: "ibm03", HardModules: 290, SoftModules: 999, ScaleFactor: 2, Nets: 10279, Terminals: 283, OutlineMM2: 64, PowerW: 19.78, Dies: 2, Seed: 2003},
		{Name: "ibm07", HardModules: 291, SoftModules: 829, ScaleFactor: 2, Nets: 15047, Terminals: 287, OutlineMM2: 64, PowerW: 9.92, Dies: 2, Seed: 2007},
	}
}

// ByName returns the Table 1 spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Table1() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// MustGenerate is Generate for the named Table 1 benchmark, panicking on
// unknown names (intended for examples and benches).
func MustGenerate(name string) *netlist.Design {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	d, err := Generate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Generate synthesizes a deterministic design from the spec. The same spec
// always yields the identical design.
func Generate(spec Spec) (*netlist.Design, error) {
	if spec.HardModules < 0 || spec.SoftModules < 0 || spec.HardModules+spec.SoftModules == 0 {
		return nil, fmt.Errorf("bench: invalid module counts %d/%d", spec.HardModules, spec.SoftModules)
	}
	if spec.Nets <= 0 || spec.OutlineMM2 <= 0 || spec.PowerW <= 0 {
		return nil, fmt.Errorf("bench: invalid spec %+v", spec)
	}
	if spec.Dies == 0 {
		spec.Dies = 2
	}
	util := spec.Utilization
	if util == 0 {
		util = DefaultUtilization
	}
	sens := spec.SensitiveFraction
	if sens == 0 {
		sens = 0.05
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	nMod := spec.HardModules + spec.SoftModules

	// Per-die outline: Table 1 reports the per-die area in mm^2; dies are
	// square (the GSRC fixed-outline convention). 1 mm = 1000 um.
	side := math.Sqrt(spec.OutlineMM2) * 1000.0

	d := &netlist.Design{
		Name:     spec.Name,
		OutlineW: side,
		OutlineH: side,
		Dies:     spec.Dies,
	}

	// --- Module areas -----------------------------------------------------
	// Draw lognormal raw areas (GSRC/IBM block-size distributions are heavy
	// tailed), then rescale so that total area = util * dies * outline.
	targetArea := util * float64(spec.Dies) * side * side
	raw := make([]float64, nMod)
	sum := 0.0
	for i := range raw {
		// sigma 0.8 gives ~20x spread between small and large blocks.
		raw[i] = math.Exp(rng.NormFloat64() * 0.8)
		sum += raw[i]
	}
	areaScale := targetArea / sum

	// --- Module powers ----------------------------------------------------
	// Power correlates with area but with noisy per-module density; a few
	// "hot" modules (crypto-like) carry elevated density, mirroring the
	// security modules the paper's attacks target.
	densNoise := make([]float64, nMod)
	for i := range densNoise {
		densNoise[i] = math.Exp(rng.NormFloat64() * 0.5)
	}
	nSens := int(math.Ceil(sens * float64(nMod)))
	sensitive := make(map[int]bool, nSens)
	for len(sensitive) < nSens {
		i := rng.Intn(nMod)
		if !sensitive[i] {
			sensitive[i] = true
			densNoise[i] *= 2.5 // hot security modules
		}
	}
	rawPow := make([]float64, nMod)
	powSum := 0.0
	for i := range rawPow {
		rawPow[i] = raw[i] * densNoise[i]
		powSum += rawPow[i]
	}
	powScale := spec.PowerW / powSum

	// Modules, terminals and nets each come from one backing array.
	mods := make([]netlist.Module, nMod)
	for i := range mods {
		area := raw[i] * areaScale
		kind := netlist.Soft
		name := "sb" + strconv.Itoa(i)
		if i < spec.HardModules {
			kind = netlist.Hard
			name = "hb" + strconv.Itoa(i)
		}
		// Hard blocks get a fixed aspect ratio in [0.5, 2]; soft blocks are
		// generated square and may be reshaped by the floorplanner.
		aspect := 1.0
		if kind == netlist.Hard {
			aspect = 0.5 + 1.5*rng.Float64()
		}
		h := math.Sqrt(area / aspect)
		w := area / h
		m := &mods[i]
		*m = netlist.Module{
			Name: name,
			Kind: kind,
			W:    w, H: h,
			MinAspect: 1.0 / 3.0, MaxAspect: 3.0,
			Power:          rawPow[i] * powScale,
			IntrinsicDelay: moduleDelay(area, rng),
			Sensitive:      sensitive[i],
		}
		if kind == netlist.Hard {
			m.MinAspect, m.MaxAspect = aspect, aspect
		}
	}
	d.Modules = pointersTo(mods)

	// --- Terminals ----------------------------------------------------------
	// Spread the chip-level I/O pins around the outline boundary.
	terms := make([]netlist.Terminal, max(spec.Terminals, 0))
	for t := range terms {
		perim := 2 * (d.OutlineW + d.OutlineH)
		pos := perim * float64(t) / float64(spec.Terminals)
		var x, y float64
		switch {
		case pos < d.OutlineW:
			x, y = pos, 0
		case pos < d.OutlineW+d.OutlineH:
			x, y = d.OutlineW, pos-d.OutlineW
		case pos < 2*d.OutlineW+d.OutlineH:
			x, y = 2*d.OutlineW+d.OutlineH-pos, d.OutlineH
		default:
			x, y = 0, perim-pos
		}
		terms[t] = netlist.Terminal{Name: "p" + strconv.Itoa(t), X: x, Y: y}
	}
	d.Terminals = pointersTo(terms)

	// --- Nets ----------------------------------------------------------------
	// Degree distribution follows block-level benchmark practice: dominated
	// by 2- and 3-pin nets with a thin high-degree tail. Locality: each net
	// is seeded from a module and preferentially connects to "nearby"
	// modules in index space (a cheap proxy for the logical hierarchy the
	// original netlists encode).
	termNets := min(len(terms), spec.Nets) // one net per terminal keeps all I/O connected
	nets := make([]netlist.Net, spec.Nets)
	termPins := make([]int, termNets)
	for ni := range nets {
		n := &nets[ni]
		n.Name = "n" + strconv.Itoa(ni)
		deg := netDegree(rng)
		root := rng.Intn(nMod)
		n.Modules = make([]int, 1, deg)
		n.Modules[0] = root
		window := 1 + nMod/8
		for len(n.Modules) < deg {
			var cand int
			if rng.Float64() < 0.8 {
				cand = root + rng.Intn(2*window+1) - window
				cand = ((cand % nMod) + nMod) % nMod
			} else {
				cand = rng.Intn(nMod)
			}
			// A net's degree is at most 12, so a scan beats a set.
			if !slices.Contains(n.Modules, cand) {
				n.Modules = append(n.Modules, cand)
			}
		}
		if ni < termNets {
			termPins[ni] = ni
			n.Terminals = termPins[ni : ni+1 : ni+1]
		}
	}
	d.Nets = pointersTo(nets)

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("bench: generated invalid design: %w", err)
	}
	return d, nil
}

// pointersTo returns a pointer to each element of s, or nil when s is
// empty, as appending nothing would leave the slice.
func pointersTo[T any](s []T) []*T {
	if len(s) == 0 {
		return nil
	}
	p := make([]*T, len(s))
	for i := range s {
		p[i] = &s[i]
	}
	return p
}

// netDegree draws a net degree: ~60% 2-pin, ~25% 3-pin, thin tail to 12.
func netDegree(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.60:
		return 2
	case u < 0.85:
		return 3
	case u < 0.95:
		return 4 + rng.Intn(2)
	default:
		return 6 + rng.Intn(7)
	}
}

// moduleDelay estimates an intrinsic module delay in ns from its area; large
// modules have longer internal paths. Calibrated so the biggest benchmark
// blocks land near the paper's critical delays (Table 2: 0.78 - 3.8 ns).
func moduleDelay(areaUM2 float64, rng *rand.Rand) float64 {
	// ~sqrt(area) in mm scaled to a fraction of a ns, with 20% jitter.
	base := 0.05 + 0.12*math.Sqrt(areaUM2)/1000.0
	return base * (0.8 + 0.4*rng.Float64())
}
