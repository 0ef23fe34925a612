package tscfp

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestBenchmarkUnknownName pins the error path for a bad benchmark name —
// the first thing a bad job submission hits.
func TestBenchmarkUnknownName(t *testing.T) {
	for _, name := range []string{"", "n9000", "N100", "ibm99"} {
		d, err := Benchmark(name)
		if err == nil || d != nil {
			t.Errorf("Benchmark(%q) = %v, %v; want error", name, d, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBenchmark on an unknown name did not panic")
		}
	}()
	MustBenchmark("n9000")
}

// TestDesignDecodeTruncated: every truncation of a valid design document
// must fail cleanly (an error, never a panic or a silently partial design).
func TestDesignDecodeTruncated(t *testing.T) {
	full, err := json.Marshal(MustBenchmark("n100"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1} {
		var d Design
		if err := json.Unmarshal(full[:cut], &d); err == nil {
			t.Errorf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestDesignDecodeInvalid covers the structured error paths of
// Design.UnmarshalJSON: unknown module kinds and netlists that fail
// validation.
func TestDesignDecodeInvalid(t *testing.T) {
	cases := map[string]string{
		"unknown module kind": `{"name":"x","dies":2,"outline_w_um":100,"outline_h_um":100,
			"modules":[{"name":"m0","kind":"gaseous","w_um":10,"h_um":10,"power_w":1}],
			"nets":[]}`,
		"invalid netlist": `{"name":"x","dies":2,"outline_w_um":100,"outline_h_um":100,
			"modules":[{"name":"m0","kind":"hard","w_um":10,"h_um":10,"power_w":1}],
			"nets":[{"name":"n0","modules":[0,99]}]}`,
	}
	for name, doc := range cases {
		var d Design
		if err := json.Unmarshal([]byte(doc), &d); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestResultDecodeTruncated: ReadResult on a truncated document errors.
func TestResultDecodeTruncated(t *testing.T) {
	doc := `{"benchmark":"n100","mode":"tsc-aware","dies":2,"grid_n":4,`
	if _, err := ReadResult(strings.NewReader(doc)); err == nil {
		t.Fatal("truncated result decoded without error")
	}
	// Structurally inconsistent (validation, not syntax): maps missing.
	bad := `{"benchmark":"n100","mode":"tsc-aware","dies":2,"grid_n":4,
		"metrics":{"per_die":[]},"power_maps":[],"temp_maps":[]}`
	if _, err := ReadResult(strings.NewReader(bad)); err == nil {
		t.Fatal("result with missing maps validated without error")
	}
}

// TestResultDecodeTamperedAlias: ReadResult rejects a result whose two-die
// metric aliases disagree with its per-die metrics, one tampered alias at a
// time, and accepts the untampered document.
func TestResultDecodeTamperedAlias(t *testing.T) {
	res := &Result{Dies: 3, GridN: 1,
		PowerMaps: [][]float64{{1}, {2}, {3}}, TempMaps: [][]float64{{300}, {301}, {302}}}
	m := &res.Metrics
	m.PerDie = []DieMetrics{{R: 0.1, S: 0.2, SVF: 0.3, MeanStability: 0.4}, {R: 9, S: 9, SVF: 9, MeanStability: 9},
		{R: 0.5, S: 0.6, SVF: 0.7, MeanStability: 0.8}}
	m.R1, m.S1, m.SVF1, m.MeanStability1 = 0.1, 0.2, 0.3, 0.4
	m.R2, m.S2, m.SVF2, m.MeanStability2 = 0.5, 0.6, 0.7, 0.8
	decode := func() error {
		t.Helper()
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadResult(bytes.NewReader(data))
		return err
	}
	if err := decode(); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	for _, f := range []*float64{&m.S1, &m.R1, &m.SVF1, &m.MeanStability1, &m.S2, &m.R2, &m.SVF2, &m.MeanStability2} {
		orig := *f
		*f = math.Nextafter(orig, 1)
		if err := decode(); err == nil {
			t.Errorf("alias tampered from %v to %v accepted", orig, *f)
		}
		*f = orig
	}
}

// TestAllBenchmarksDesignRoundTrip: every built-in benchmark survives
// Design -> JSON -> Design with byte-identical re-encoding and an equal
// netlist shape — the property that makes benchmark-by-name submissions
// and their inline-design equivalents content-address identically.
func TestAllBenchmarksDesignRoundTrip(t *testing.T) {
	names := Benchmarks()
	if len(names) == 0 {
		t.Fatal("no built-in benchmarks")
	}
	for _, name := range names {
		orig := MustBenchmark(name)
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Design
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: JSON not stable across a round trip (%d vs %d bytes)",
				name, len(data), len(again))
		}
		if back.Name() != orig.Name() ||
			back.Dies() != orig.Dies() ||
			back.NumModules() != orig.NumModules() ||
			back.NumNets() != orig.NumNets() ||
			back.NumTerminals() != orig.NumTerminals() ||
			back.HardModules() != orig.HardModules() {
			t.Errorf("%s: decoded design shape differs", name)
		}
	}
}
