// Package timing estimates timing paths for block-level 3D floorplans: net
// delays via Elmore models of the placed wires (including TSV parasitics for
// cross-die nets), module delays from their intrinsic values scaled by the
// voltage assignment, and a static timing analysis that yields the critical
// delay and per-module slacks. The voltage-assignment stage (internal/volt)
// consumes the slacks, exactly as the paper describes: "the prospects for
// voltage assignment depend primarily on timing slacks".
//
// Block-level IP modules are registered at their boundaries, so a timing
// path is one hop: source module internal delay + Elmore net delay + sink
// module internal delay, and the critical delay is the worst hop. This is
// the standard floorplan-stage model for black-box IP (the paper's Sec. 2.2
// threat model: only basic module properties are known) and it lands the
// critical delays in the paper's reported range (Table 2: 0.78 - 3.8 ns).
//
// The interconnect parasitics are fixed 90 nm-class values, the node of the
// paper's voltage-scaling data (Sec. 6.1); the paper names no wire or TSV
// parasitics, so these are this repo's choice, and the flow uses no other.
package timing

import (
	"math"

	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// Interconnect parasitics at 90 nm. Units: resistance kOhm, capacitance fF,
// lengths um; kOhm*fF = ps.
const (
	rWire   = 0.08e-3 // kOhm per um (0.08 Ohm/um)
	cWire   = 0.2     // fF per um
	rDriver = 1.0     // kOhm, driving-point resistance
	cPin    = 2.0     // fF per sink pin
	rTSV    = 0.05e-3 // kOhm per TSV (50 mOhm)
	cTSV    = 50.0    // fF per TSV

	// VertLen is the wirelength detour in um charged to a cross-die net
	// through the bond layer, in its Elmore delay and in the flow's
	// wirelength (floorplan.Layout.HPWL).
	VertLen = 50.0
)

// Analysis is the result of one STA pass over a layout.
type Analysis struct {
	// NetDelay[n] is net n's Elmore delay in ns.
	NetDelay []float64
	// Arrive[m] is the worst incoming stage into module m: the largest
	// (driver delay + net delay) over nets driving m, in ns.
	Arrive []float64
	// Depart[m] is the worst outgoing stage from module m: the largest
	// (net delay + sink delay) over nets m drives, in ns.
	Depart []float64
	// ModuleDelay[m] is the voltage-scaled module delay used.
	ModuleDelay []float64
	// Critical is the design's critical (single-hop) path delay in ns.
	Critical float64
}

// Analyze runs Elmore estimation and single-hop STA over the layout.
// delayScale[m] multiplies module m's intrinsic delay (nil = all 1.0, the
// 1.0 V reference).
func Analyze(l *floorplan.Layout, delayScale []float64) *Analysis {
	netDelay := make([]float64, len(l.Design.Nets))
	for ni := range l.Design.Nets {
		netDelay[ni] = NetElmore(l, ni)
	}
	// Hand the just-built slice in as the copy destination too, so the
	// Into form's defensive copy degenerates to a no-op self-copy.
	return AnalyzeFromNetDelaysInto(l.Design, netDelay, delayScale, &Analysis{NetDelay: netDelay})
}

// AnalyzeFromNetDelaysInto runs the STA pass over precomputed per-net Elmore
// delays (in ns), bypassing the geometric estimation. Given the delays
// Analyze would compute, it returns an identical Analysis — this is the
// entry point for the incremental cost evaluator, which keeps the per-net
// delays cached across annealing moves and recomputes only the nets touched
// by a move. It reuses the slices of a previous Analysis (nil allocates a
// fresh one) — the annealing loop runs one to two STA passes per move, so
// the buffers are worth recycling. The returned Analysis is `into` when
// provided; its previous contents are overwritten. netDelay is copied into
// the Analysis, never aliased: the incremental cost evaluator patches its
// cached per-net delays in place on every annealing move, and an Analysis
// retained past the call (a report, a snapshot in a Result) must not drift
// with those patches.
func AnalyzeFromNetDelaysInto(des *netlist.Design, netDelay []float64, delayScale []float64, into *Analysis) *Analysis {
	nMod := len(des.Modules)
	a := into
	if a == nil {
		a = &Analysis{}
	}
	if cap(a.NetDelay) < len(netDelay) {
		a.NetDelay = make([]float64, len(netDelay))
	}
	a.NetDelay = a.NetDelay[:len(netDelay)]
	copy(a.NetDelay, netDelay)
	a.Arrive = resizeZeroed(a.Arrive, nMod)
	a.Depart = resizeZeroed(a.Depart, nMod)
	a.ModuleDelay = resizeZeroed(a.ModuleDelay, nMod)
	a.Critical = 0
	for m, mod := range des.Modules {
		s := 1.0
		if delayScale != nil {
			s = delayScale[m]
		}
		a.ModuleDelay[m] = mod.IntrinsicDelay * s
	}
	// Orient each net from its lowest-index module pin to the others (the
	// conventional driver heuristic for direction-less benchmarks).
	for ni, n := range des.Nets {
		if len(n.Modules) < 2 {
			continue
		}
		drv := n.Modules[0]
		for _, m := range n.Modules[1:] {
			if m < drv {
				drv = m
			}
		}
		nd := a.NetDelay[ni]
		for _, m := range n.Modules {
			if m == drv {
				continue
			}
			if in := a.ModuleDelay[drv] + nd; in > a.Arrive[m] {
				a.Arrive[m] = in
			}
			if out := nd + a.ModuleDelay[m]; out > a.Depart[drv] {
				a.Depart[drv] = out
			}
		}
	}
	for m := 0; m < nMod; m++ {
		if th := a.PathThrough(m); th > a.Critical {
			a.Critical = th
		}
	}
	return a
}

// resizeZeroed returns s resized to n elements, all zero.
func resizeZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// PathThrough returns the longest single-hop path touching module m in ns:
// its own delay plus the worse of its worst incoming and outgoing stages.
func (a *Analysis) PathThrough(m int) float64 {
	return a.ModuleDelay[m] + math.Max(a.Arrive[m], a.Depart[m])
}

// NetElmore returns net ni's Elmore delay in ns for the given layout.
// The model: a driver of resistance rDriver charges the net's distributed
// RC (length = half-perimeter wirelength plus the vertical detour for
// cross-die nets) and the sink pin loads; TSVs on cross-die nets add their
// lumped resistance and capacitance.
func NetElmore(l *floorplan.Layout, ni int) float64 {
	n := l.Design.Nets[ni]
	length := l.NetHPWL(n, 0)
	crossDie := false
	die0 := -1
	for _, mi := range n.Modules {
		if die0 == -1 {
			die0 = l.DieOf[mi]
		} else if l.DieOf[mi] != die0 {
			crossDie = true
			break
		}
	}
	return ElmoreDelay(length, crossDie, n.Degree())
}

// ElmoreDelay returns the Elmore delay (ns) of a net from its geometric
// summary: the half-perimeter wirelength in um WITHOUT the vertical detour
// (added here for cross-die nets), whether the net spans dies, and its pin
// degree. NetElmore is exactly ElmoreDelay over the layout-derived summary;
// the incremental evaluator calls this directly on its cached geometry.
//
// Degenerate nets (fewer than two pins) have no wire to charge and are
// defined to have zero delay — without the guard a zero-pin net's
// sinkPins = -1 would yield a negative capacitance and a negative delay,
// which the STA pass skips but the evaluators' cached WL/delay terms would
// absorb.
func ElmoreDelay(length float64, crossDie bool, degree int) float64 {
	if degree < 2 {
		return 0
	}
	tsvs := 0
	if crossDie {
		tsvs = 1
		length += VertLen
	}
	sinkPins := float64(degree - 1)
	cTotal := cWire*length + cPin*sinkPins + cTSV*float64(tsvs)
	// Driver sees the full load; the distributed wire adds R*C/2; the TSV
	// adds its lumped RC charging the downstream half of the load.
	ps := rDriver*cTotal +
		0.5*rWire*length*(cWire*length+cPin*sinkPins) +
		rTSV*float64(tsvs)*cTotal/2
	return ps * 1e-3 // ps -> ns
}

// WorstPaths returns the k modules with the longest paths through them,
// sorted descending — the voltage-assignment stage protects these first.
func (a *Analysis) WorstPaths(k int) []int {
	n := len(a.ModuleDelay)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if a.PathThrough(idx[j]) > a.PathThrough(idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
