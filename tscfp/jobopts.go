package tscfp

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// RunOptions is the knob set of a flow: the one place every knob is
// stored. The With* options of this package each set one of its fields,
// and it is also the JSON-decodable form accepted by out-of-process callers
// (the tscfpd job API, config files). The zero value of every field selects
// the knob's default, so a decoded `{}` behaves exactly like
// NewFlow(design) with no options.
//
// Strings follow the CLI spellings: Mode accepts the ParseMode forms
// ("pa", "power-aware", "tsc", "tsc-aware") and PostCriterion accepts
// "bottom-die" or "all-dies". Marshaling is deterministic (fields in
// declaration order, omitempty throughout), which serving layers rely on
// when content-addressing a submission — normalize via Canonical before
// hashing so "tsc" and "tsc-aware" address the same artifact.
type RunOptions struct {
	Mode              string   `json:"mode,omitempty"`
	Seed              int64    `json:"seed,omitempty"`
	Iterations        int      `json:"iterations,omitempty"`
	GridN             int      `json:"grid_n,omitempty"`
	ActivitySamples   int      `json:"activity_samples,omitempty"`
	ActivitySigma     float64  `json:"activity_sigma,omitempty"`
	PostProcess       *bool    `json:"post_process,omitempty"`
	PostCriterion     string   `json:"post_criterion,omitempty"`
	ProtectedModules  []int    `json:"protected_modules,omitempty"`
	MaxDummyGroups    int      `json:"max_dummy_groups,omitempty"`
	DummyViasPerGroup int      `json:"dummy_vias_per_group,omitempty"`
	VoltEvery         int      `json:"volt_every,omitempty"`
	VoltTargetFactor  float64  `json:"volt_target_factor,omitempty"`
	Weights           *Weights `json:"weights,omitempty"`
	Parallelism       *int     `json:"parallelism,omitempty"`
	// Replicas and Speculation shape the annealer (WithReplicas /
	// WithSpeculation). 0 and 1 both mean one replica or one copy, and both
	// at 0 or 1 is the serial chain; Canonical normalizes 1 to 0 so the two
	// spellings content-address identically.
	Replicas    int `json:"replicas,omitempty"`
	Speculation int `json:"speculation,omitempty"`
}

// maxActivitySigma bounds the relative power sigma of the activity model,
// 100 times the paper's 0.10. At 1e300 the sampled powers overflow the
// leakage metrics, and the SVF and stability read NaN.
const maxActivitySigma = 10

// Canonical validates the knob set and returns a normalized copy. It is
// the one validator of the knobs: NewFlow, Options and tscfpd's admission
// all go through it. It rejects unknown mode and criterion spellings,
// negative counts and NaN/±Inf floats (which JSON cannot carry, so a flow
// would run to completion and only fail to encode its Result), a grid_n of
// 1 (the thermal model panics below 2x2) and an activity_sigma outside
// [0, 10], naming the knob in each error. It expands spellings to their
// full forms ("tsc" becomes "tsc-aware") and normalizes Replicas and
// Speculation 1 to 0, the other spelling of one replica or one copy. Two RunOptions that configure
// the same flow canonicalize to identical JSON, making the result a safe
// content-address component.
func (o RunOptions) Canonical() (RunOptions, error) {
	if o.Mode != "" {
		m, err := ParseMode(o.Mode)
		if err != nil {
			return RunOptions{}, err
		}
		o.Mode = string(m)
	}
	switch PostCriterion(o.PostCriterion) {
	case "", BottomDie, AllDies:
	default:
		return RunOptions{}, fmt.Errorf("tscfp: unknown post criterion %q", o.PostCriterion)
	}
	par := 0
	if o.Parallelism != nil {
		par = *o.Parallelism
	}
	for _, k := range []struct {
		name string
		n    int
	}{
		{"iterations", o.Iterations}, {"grid_n", o.GridN},
		{"activity_samples", o.ActivitySamples}, {"max_dummy_groups", o.MaxDummyGroups},
		{"dummy_vias_per_group", o.DummyViasPerGroup}, {"volt_every", o.VoltEvery},
		{"parallelism", par}, {"replicas", o.Replicas}, {"speculation", o.Speculation},
	} {
		if k.n < 0 {
			return RunOptions{}, fmt.Errorf("tscfp: negative %s %d", k.name, k.n)
		}
	}
	type knob struct {
		name string
		v    float64
	}
	floats := []knob{{"activity_sigma", o.ActivitySigma}, {"volt_target_factor", o.VoltTargetFactor}}
	if w := o.Weights; w != nil {
		floats = append(floats, knob{"weights.outline_violation", w.OutlineViolation},
			knob{"weights.wirelength", w.Wirelength}, knob{"weights.critical_delay", w.CriticalDelay},
			knob{"weights.peak_temp", w.PeakTemp}, knob{"weights.power", w.Power},
			knob{"weights.voltage_volumes", w.VoltageVolumes}, knob{"weights.correlation", w.Correlation},
			knob{"weights.spatial_entropy", w.SpatialEntropy}, knob{"weights.design_rule", w.DesignRule})
	}
	for _, k := range floats {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return RunOptions{}, fmt.Errorf("tscfp: non-finite %s %v", k.name, k.v)
		}
	}
	if o.GridN == 1 {
		return RunOptions{}, fmt.Errorf("tscfp: grid_n 1 is below the thermal model's 2x2 grid")
	}
	if o.ActivitySigma < 0 || o.ActivitySigma > maxActivitySigma {
		return RunOptions{}, fmt.Errorf("tscfp: activity_sigma %v outside [0, %v]", o.ActivitySigma, maxActivitySigma)
	}
	if o.Replicas == 1 {
		o.Replicas = 0
	}
	if o.Speculation == 1 {
		o.Speculation = 0
	}
	return o, nil
}

// Options returns the knob set as flow options for NewFlow: one Option
// that sets every knob to its canonical value. Because it sets every knob,
// it must come before any option that overrides one of them; an option
// placed before it is overwritten. Spelling and range errors (unknown mode
// or criterion, negative counts, NaN/±Inf floats) surface here, from
// Canonical.
func (o RunOptions) Options() ([]Option, error) {
	c, err := o.Canonical()
	if err != nil {
		return nil, err
	}
	return []Option{func(s *settings) { s.RunOptions = c }}, nil
}

// config lowers a canonical knob set into the flow configuration, field
// for field. Zero fields stay zero, so core fills in every default; slices
// and pointed-to values are copied, so a Flow shares no memory with the
// options it was built from.
func (o RunOptions) config() core.Config {
	cfg := core.Config{
		Mode:              Mode(o.Mode).core(),
		Seed:              o.Seed,
		SAIterations:      o.Iterations,
		GridN:             o.GridN,
		ActivitySamples:   o.ActivitySamples,
		ActivitySigma:     o.ActivitySigma,
		ProtectModules:    append([]int(nil), o.ProtectedModules...),
		MaxDummyGroups:    o.MaxDummyGroups,
		DummyViasPerGroup: o.DummyViasPerGroup,
		VoltEvery:         o.VoltEvery,
		VoltTargetFactor:  o.VoltTargetFactor,
		Replicas:          o.Replicas,
		Speculation:       o.Speculation,
	}
	if PostCriterion(o.PostCriterion) == AllDies {
		cfg.PostCriterion = core.AllDies
	}
	if o.PostProcess != nil {
		pp := *o.PostProcess
		cfg.PostProcess = &pp
	}
	if o.Weights != nil {
		w := *o.Weights
		cfg.Weights = &w
	}
	if o.Parallelism != nil {
		cfg.Parallelism = *o.Parallelism
	}
	return cfg
}
