package tscfp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// FuzzDesignFlow drives decoded Design JSON and RunOptions JSON through
// NewFlow into a tiny-budget Flow.Run. The property: an input NewFlow
// accepts runs to a Result that encodes and decodes through ReadResult, with
// |r1|, |r2| <= 1 and, when some net joins two distinct modules, a positive
// critical delay (every such net's driver charges at least its sink pins, so
// a zero delay means the timing model was fed a negative module delay).
//
// Work per input is bounded: designs with more than 16 modules, 4 dies or
// 64 nets are skipped, and the budget knobs are folded into iterations <= 30,
// grid <= 8, activity samples <= 3, dummy groups <= 3, and replicas,
// speculation and parallelism <= 2. The committed corpus holds two small
// valid designs and five that Design.Validate once accepted although the
// flow could not encode their Result.
func FuzzDesignFlow(f *testing.F) {
	f.Fuzz(func(t *testing.T, designJSON, optionsJSON []byte) {
		var d Design
		if json.Unmarshal(designJSON, &d) != nil {
			return
		}
		if d.NumModules() > 16 || d.Dies() > 4 || d.NumNets() > 64 {
			return
		}
		var o RunOptions
		if json.Unmarshal(optionsJSON, &o) != nil {
			return
		}
		foldBudget(&o.Iterations, 30)
		foldBudget(&o.GridN, 8)
		foldBudget(&o.ActivitySamples, 3)
		foldBudget(&o.MaxDummyGroups, 3)
		o.Replicas %= 3
		o.Speculation %= 3
		if o.Parallelism != nil {
			p := *o.Parallelism % 3
			o.Parallelism = &p
		}
		opts, err := o.Options()
		if err != nil {
			return
		}
		flow, err := NewFlow(&d, opts...)
		if err != nil {
			return
		}
		res, err := flow.Run(context.Background())
		if err != nil {
			t.Fatalf("accepted input failed to run: %v", err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatalf("result does not encode: %v (metrics %+v)", err, res.Metrics)
		}
		if _, err := ReadResult(bytes.NewReader(data)); err != nil {
			t.Fatalf("encoded result does not decode: %v", err)
		}
		if m := res.Metrics; !(math.Abs(m.R1) <= 1 && math.Abs(m.R2) <= 1) {
			t.Fatalf("correlations r1 %v, r2 %v outside [-1, 1]", m.R1, m.R2)
		}
		for _, n := range d.Netlist().Nets {
			if slices.Min(n.Modules) != slices.Max(n.Modules) && !(res.Metrics.CriticalNS > 0) {
				t.Fatalf("critical delay %v with net %q joining two modules", res.Metrics.CriticalNS, n.Name)
			}
		}
	})
}

// foldBudget folds a budget knob into [1, hi]: zero would select the flow's
// default, far above hi. A negative value stays, for Canonical to reject.
func foldBudget(v *int, hi int) {
	if *v == 0 || *v > hi {
		*v = 1 + *v%hi
	}
}
