// Golden end-to-end regression fixtures: fixed-seed tscfp runs serialized
// as Result JSON under testdata/golden/, compared field-by-field with
// tolerances. They pin the WHOLE incremental stack (cost, voltage, entropy,
// adjacency caches — all always on) plus the finalize/post-process stages
// against the exact outputs recorded at review time: any change that shifts
// an annealing decision, a metric, or the JSON schema shows up as a named
// field diff here rather than as silent drift.
//
// Regenerate after an intentional behavior change with:
//
//	go test -run TestGolden -update
//
// and review the fixture diff like any other code change.
package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/tscfp"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden fixtures under testdata/golden/")

// goldenTol is the per-number relative tolerance. The flow is deterministic
// for a fixed seed, so fixtures reproduce byte-identically on the platform
// that recorded them; the tolerance only absorbs cross-platform libm/FMA
// differences in the float-heavy fields.
const goldenTol = 1e-9

func goldenCases() []struct {
	name string
	opts []tscfp.Option
} {
	// Small budgets: each case must stay test-suite cheap while still
	// covering annealing, TSV planning, voltage assignment, verification,
	// and (TSC case) sampling + dummy-TSV post-processing.
	return []struct {
		name string
		opts []tscfp.Option
	}{
		{"n100-tsc-seed7", []tscfp.Option{
			tscfp.WithMode(tscfp.TSCAware),
			tscfp.WithSeed(7),
			tscfp.WithIterations(150),
			tscfp.WithGridN(16),
			tscfp.WithActivitySamples(6),
			tscfp.WithMaxDummyGroups(4),
		}},
		{"n100-pa-seed7", []tscfp.Option{
			tscfp.WithMode(tscfp.PowerAware),
			tscfp.WithSeed(7),
			tscfp.WithIterations(150),
			tscfp.WithGridN(16),
		}},
		// The parallel annealer's determinism contract: 3 tempered replicas
		// with 2-wide speculation walk a different (documented) search than
		// serial, but a fixed (seed, replicas, speculation) triple must
		// reproduce this fixture byte-for-byte on any GOMAXPROCS — CI runs
		// this package at -cpu 1,4,8 under -race, so the same fixture bytes
		// pin all three schedules.
		{"n100-tsc-seed7-repl3", []tscfp.Option{
			tscfp.WithMode(tscfp.TSCAware),
			tscfp.WithSeed(7),
			tscfp.WithIterations(150),
			tscfp.WithGridN(16),
			tscfp.WithActivitySamples(6),
			tscfp.WithMaxDummyGroups(4),
			tscfp.WithReplicas(3),
			tscfp.WithSpeculation(2),
		}},
	}
}

// goldenJSON runs one fixed-seed flow and returns its Result JSON with the
// runtime — the one documented non-deterministic field — zeroed.
func goldenJSON(t *testing.T, design *tscfp.Design, opts ...tscfp.Option) []byte {
	t.Helper()
	res, err := tscfp.Run(t.Context(), design, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res.Metrics.RuntimeSec = 0
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGoldenReplicasOffIdentity pins the flow-identity half of the parallel
// annealing contract end to end: WithReplicas(1) / WithSpeculation(1) are
// the default one-replica, one-copy shape and must reproduce the SERIAL
// golden fixture byte-for-byte — not merely match another run of
// themselves. Under -update the fixture may be stale until
// TestGoldenResults rewrites it, so the reference is a fresh serial run.
func TestGoldenReplicasOffIdentity(t *testing.T) {
	design := tscfp.MustBenchmark("n100")
	serial := goldenCases()[0] // n100-tsc-seed7
	got := goldenJSON(t, design, append(append([]tscfp.Option{}, serial.opts...),
		tscfp.WithReplicas(1), tscfp.WithSpeculation(1))...)
	var want []byte
	if *updateGolden {
		want = goldenJSON(t, design, serial.opts...)
	} else {
		var err error
		want, err = os.ReadFile(filepath.Join("testdata", "golden", serial.name+".json"))
		if err != nil {
			t.Fatalf("missing golden fixture (run `go test -run TestGolden -update`): %v", err)
		}
	}
	if diffs := diffJSON(t, got, want); len(diffs) > 0 {
		t.Fatalf("replicas=1 diverged from the serial fixture:\n%s", joinLines(diffs))
	}
}

func TestGoldenResults(t *testing.T) {
	design := tscfp.MustBenchmark("n100")
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenJSON(t, design, tc.opts...)
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run `go test -run TestGolden -update`): %v", err)
			}
			diffs := diffJSON(t, got, want)
			if len(diffs) > 0 {
				const show = 12
				if len(diffs) > show {
					diffs = append(diffs[:show], fmt.Sprintf("... and %d more", len(diffs)-show))
				}
				t.Fatalf("result diverges from %s:\n%s", path, joinLines(diffs))
			}
		})
	}
}

// diffJSON decodes both documents and walks them field by field, comparing
// numbers with the golden tolerance and everything else exactly. Returned
// diffs name the JSON path of each mismatch.
func diffJSON(t *testing.T, got, want []byte) []string {
	t.Helper()
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("decode current result: %v", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("decode golden fixture: %v", err)
	}
	var diffs []string
	walkDiff("$", g, w, &diffs)
	return diffs
}

func walkDiff(path string, got, want any, diffs *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			*diffs = append(*diffs, fmt.Sprintf("%s: object expected, got %T", path, got))
			return
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				*diffs = append(*diffs, fmt.Sprintf("%s.%s: missing in current result", path, k))
				continue
			}
			walkDiff(path+"."+k, gv, w[k], diffs)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				*diffs = append(*diffs, fmt.Sprintf("%s.%s: not in golden fixture", path, k))
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			*diffs = append(*diffs, fmt.Sprintf("%s: array expected, got %T", path, got))
			return
		}
		if len(g) != len(w) {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d, want %d", path, len(g), len(w)))
			return
		}
		for i := range w {
			walkDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], diffs)
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			*diffs = append(*diffs, fmt.Sprintf("%s: number expected, got %T", path, got))
			return
		}
		if d := math.Abs(g - w); d > goldenTol*math.Max(1, math.Abs(w)) {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v, want %v (|diff| %g)", path, g, w, d))
		}
	default:
		if got != want {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v, want %v", path, got, want))
		}
	}
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += "  " + l + "\n"
	}
	return out
}
