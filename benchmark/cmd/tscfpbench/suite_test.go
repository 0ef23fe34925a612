package main

import (
	"io"
	"sort"
	"testing"
)

const specPath = "../../../BENCHMARK.json"

func names(specs []metricSpec) map[string]string {
	m := map[string]string{}
	for _, s := range specs {
		m[s.name] = s.unit
	}
	return m
}

// TestSpecMatchesCode pins BENCHMARK.json to the metric tables the command
// prints from, in both directions, units included.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	sameKeys(t, "end_to_end", e2e, names(endToEnd))
	sameKeys(t, "per_layer", layers, names(perLayer()))
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if got, want := wl, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
}

func sameKeys(t *testing.T, what string, spec, code map[string]string) {
	t.Helper()
	for n, u := range spec {
		if cu, ok := code[n]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not printed", what, n)
		} else if cu != u {
			t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the command", what, n, u, cu)
		}
	}
	for n := range code {
		if _, ok := spec[n]; !ok {
			t.Errorf("%s: %s is printed but not in BENCHMARK.json", what, n)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickSmoke runs every workload at tiny budgets, untraced and traced,
// and checks each report is correct and carries exactly the metric names
// BENCHMARK.json lists for its mode.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(name, workloads[name], 3, 0.3, trace, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.digests) == 0 {
				t.Errorf("%s trace=%v: no result digests", name, trace)
			}
			got := map[string]string{}
			for n, v := range rep.Metrics {
				got[n] = v.Unit
			}
			want := e2e
			if trace {
				want = layers
			}
			sameKeys(t, name, want, got)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name        string
		other       []float64
		lowerBetter bool
		want        string
	}{
		{"same", base, true, "within"},
		{"slower", scale(base, 1.2), true, "worse"},
		{"faster", scale(base, 0.8), true, "better"},
		{"higher is better, dropped", scale(base, 0.8), false, "worse"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, true, "unresolved"},
		{"noisy but all better", []float64{50, 90, 60, 85, 70, 55, 88, 65, 75, 80}, true, "better"},
	}
	for _, c := range cases {
		if got := verdict(base, c.other, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareResults checks that compare matches runs by (workload, seed)
// and counts a result only both runs produced.
func TestCompareResults(t *testing.T) {
	base := &setFile{Runs: []setRun{
		{Workload: "w", Seed: 1, Digests: map[string]string{"n100/5": "aa", "n100/6": "bb"}},
		{Workload: "w", Seed: 2, Digests: map[string]string{"n100/7": "cc"}},
	}}
	same := &setFile{Runs: []setRun{
		{Workload: "w", Seed: 1, Digests: map[string]string{"n100/5": "aa", "n100/8": "dd"}},
		{Workload: "w", Seed: 3, Digests: map[string]string{"n100/7": "ee"}},
	}}
	if n := compareResults(base, same, io.Discard); n != 0 {
		t.Errorf("same results: %d differ, want 0", n)
	}
	changed := &setFile{Runs: []setRun{
		{Workload: "w", Seed: 1, Digests: map[string]string{"n100/5": "aa", "n100/6": "xx"}},
		{Workload: "v", Seed: 2, Digests: map[string]string{"n100/7": "yy"}},
	}}
	if n := compareResults(base, changed, io.Discard); n != 1 {
		t.Errorf("one changed result: %d differ, want 1", n)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
