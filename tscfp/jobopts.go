package tscfp

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// RunOptions is the knob set of a flow: the one place every knob is
// stored. It is core.Config, the flow's own configuration, so the knob set
// and its JSON schema are declared once. The With* options of this package
// each set one of its fields, and it is also the JSON-decodable form
// accepted by out-of-process callers (the tscfpd job API, config files).
// The zero value of every field selects the knob's default, so a decoded
// `{}` behaves exactly like NewFlow(design) with no options.
//
// Mode accepts the ParseMode spellings ("pa", "power-aware", "tsc",
// "tsc-aware") and PostCriterion accepts "bottom-die" or "all-dies".
// Parallelism 0 is auto (see WithParallelism). Replicas and Speculation 0
// and 1 both mean one replica or one copy. CostCrossCheck and Progress have
// no wire form. Marshaling is deterministic (fields in declaration order,
// omitempty throughout), which serving layers rely on when
// content-addressing a submission — normalize via Canonical before hashing
// so "tsc" and "tsc-aware" address the same artifact.
type RunOptions core.Config

// maxGridN bounds the lateral grid resolution, 8 times the default of 32.
// One n100 run at grid 256 holds 75 MB of RSS, and the flow's work grows
// with the square of the resolution.
const maxGridN = 256

// maxEvaluatorStates bounds replicas × speculation, the number of evaluator
// states the annealer builds and runs at once (one goroutine per replica).
// On ibm01 at grid 32 each state past the first costs about 2.7 MB of RSS.
const maxEvaluatorStates = 64

// Canonical validates the knob set and returns a normalized copy. It is
// the one validator of the knobs: NewFlow, Options and tscfpd's admission
// all go through it. It rejects unknown mode and criterion spellings,
// negative counts, NaN/±Inf weights (which JSON cannot carry, so a flow
// would run to completion and only fail to encode its Result), a grid_n of
// 1 (the thermal model panics below 2x2) or above 256, and more than 64
// evaluator states (replicas × speculation), naming the knob in each error.
// It expands spellings to their full forms ("tsc" becomes "tsc-aware") and
// normalizes Replicas and Speculation 1 to 0, the other spelling of one
// replica or one copy. Two RunOptions that configure the same flow
// canonicalize to identical JSON, making the result a safe content-address
// component. The copy shares no memory with o: ProtectedModules and the
// pointed-to PostProcess and Weights are copied, so a Flow shares none with
// the options it was built from.
func (o RunOptions) Canonical() (RunOptions, error) {
	if o.Mode != "" {
		m, err := ParseMode(string(o.Mode))
		if err != nil {
			return RunOptions{}, err
		}
		o.Mode = m
	}
	switch o.PostCriterion {
	case "", BottomDie, AllDies:
	default:
		return RunOptions{}, fmt.Errorf("tscfp: unknown post criterion %q", o.PostCriterion)
	}
	for _, k := range []struct {
		name string
		n    int
	}{
		{"iterations", o.Iterations}, {"grid_n", o.GridN},
		{"activity_samples", o.ActivitySamples}, {"max_dummy_groups", o.MaxDummyGroups},
		{"volt_every", o.VoltEvery}, {"parallelism", o.Parallelism},
		{"replicas", o.Replicas}, {"speculation", o.Speculation},
	} {
		if k.n < 0 {
			return RunOptions{}, fmt.Errorf("tscfp: negative %s %d", k.name, k.n)
		}
	}
	if w := o.Weights; w != nil {
		for _, k := range []struct {
			name string
			v    float64
		}{
			{"outline_violation", w.OutlineViolation}, {"wirelength", w.Wirelength},
			{"critical_delay", w.CriticalDelay}, {"peak_temp", w.PeakTemp}, {"power", w.Power},
			{"voltage_volumes", w.VoltageVolumes}, {"correlation", w.Correlation},
			{"spatial_entropy", w.SpatialEntropy}, {"design_rule", w.DesignRule},
		} {
			if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
				return RunOptions{}, fmt.Errorf("tscfp: non-finite weights.%s %v", k.name, k.v)
			}
		}
	}
	if o.GridN == 1 {
		return RunOptions{}, fmt.Errorf("tscfp: grid_n 1 is below the thermal model's 2x2 grid")
	}
	if o.GridN > maxGridN {
		return RunOptions{}, fmt.Errorf("tscfp: grid_n %d above the bound %d", o.GridN, maxGridN)
	}
	if r, s := max(o.Replicas, 1), max(o.Speculation, 1); r > maxEvaluatorStates/s {
		return RunOptions{}, fmt.Errorf("tscfp: replicas %d × speculation %d exceeds the bound of %d evaluator states",
			o.Replicas, o.Speculation, maxEvaluatorStates)
	}
	if o.Replicas == 1 {
		o.Replicas = 0
	}
	if o.Speculation == 1 {
		o.Speculation = 0
	}
	o.ProtectedModules = append([]int(nil), o.ProtectedModules...)
	if o.PostProcess != nil {
		pp := *o.PostProcess
		o.PostProcess = &pp
	}
	if o.Weights != nil {
		w := *o.Weights
		o.Weights = &w
	}
	return o, nil
}

// Options returns the knob set as flow options for NewFlow: one Option
// that sets every knob to its canonical value. Because it sets every knob,
// Progress and CostCrossCheck included, it must come before any option that
// overrides one of them; an option placed before it is overwritten.
// Spelling and range errors (unknown mode or criterion, negative counts,
// counts past their bounds, NaN/±Inf weights) surface here, from Canonical.
func (o RunOptions) Options() ([]Option, error) {
	c, err := o.Canonical()
	if err != nil {
		return nil, err
	}
	return []Option{func(s *settings) { s.RunOptions = c }}, nil
}
