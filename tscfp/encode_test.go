package tscfp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
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
// Design.UnmarshalJSON: unknown module kinds, null list entries (which
// decode to nil pointers) and netlists that fail validation. Each is an
// error naming what is wrong, never a panic.
func TestDesignDecodeInvalid(t *testing.T) {
	const head = `{"name":"x","dies":2,"outline_w_um":100,"outline_h_um":100,`
	const m0 = `{"name":"m0","kind":"hard","w_um":10,"h_um":10,"power_w":1}`
	cases := map[string]struct{ doc, want string }{
		"unknown module kind": {head + `"modules":[{"name":"m0","kind":"gaseous","w_um":10,"h_um":10,"power_w":1}],"nets":[]}`,
			`module "m0": unknown module kind "gaseous"`},
		"invalid netlist":   {head + `"modules":[` + m0 + `],"nets":[{"name":"n0","modules":[0,99]}]}`, "module 99 out of range"},
		"null module":       {head + `"modules":[` + m0 + `,null]}`, "nil module at index 1"},
		"null net":          {head + `"modules":[` + m0 + `],"nets":[null]}`, "nil net at index 0"},
		"null terminal":     {head + `"modules":[` + m0 + `],"terminals":[null]}`, "nil terminal at index 0"},
		"nine dies":         {`{"name":"x","dies":9,"outline_w_um":100,"outline_h_um":100,"modules":[` + m0 + `]}`, "dies 9 outside [1, 8]"},
		"kind not a string": {head + `"modules":[{"name":"m0","kind":0}]}`, `module "m0"`},
	}
	for name, tc := range cases {
		var d Design
		if err := json.Unmarshal([]byte(tc.doc), &d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestDesignDecodeDefaults: an absent or empty module kind decodes as soft,
// and an empty list decodes as an absent one, so each group's spellings
// re-encode to the same bytes and content-address as one design.
func TestDesignDecodeDefaults(t *testing.T) {
	const head = `{"name":"x","dies":2,"outline_w_um":100,"outline_h_um":100,"modules":[`
	const hard = `{"name":"a","kind":"hard","w_um":10,"h_um":10,"power_w":1}`
	const pins = `"terminals":[{"name":"p","x_um":0,"y_um":5},{"name":"q","x_um":100,"y_um":5}]`
	soft := func(kind string) string {
		return `,{"name":"b",` + kind + `"w_um":10,"h_um":10,"min_aspect":0.5,"max_aspect":2,"power_w":1}`
	}
	for _, group := range []struct {
		soft int
		docs []string
	}{
		{1, []string{
			head + hard + soft(`"kind":"soft",`) + `],"nets":[{"name":"n","modules":[0,1]}]}`,
			head + hard + soft(``) + `],"nets":[{"name":"n","modules":[0,1]}]}`,
			head + hard + soft(`"kind":"",`) + `],"nets":[{"name":"n","modules":[0,1],"terminals":[]}],"terminals":[]}`,
		}},
		{0, []string{
			head + hard + `]}`,
			head + hard + `],"nets":[],"terminals":[]}`,
			head + hard + `],"nets":null}`,
		}},
		{0, []string{
			head + hard + `],"nets":[{"name":"n","terminals":[0,1]}],` + pins + `}`,
			head + hard + `],"nets":[{"name":"n","modules":[],"terminals":[0,1]}],` + pins + `}`,
		}},
	} {
		var first []byte
		for _, doc := range group.docs {
			var d Design
			if err := json.Unmarshal([]byte(doc), &d); err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if d.SoftModules() != group.soft {
				t.Errorf("%s: %d soft modules, want %d", doc, d.SoftModules(), group.soft)
			}
			data, err := json.Marshal(&d)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Errorf("%s re-encodes to %s, want %s", doc, data, first)
			}
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

// TestDesignJSONPinned pins the SHA-256 of each built-in design's JSON.
// tscfpd content-addresses a benchmark-by-name submission by these bytes,
// so a change to a netlist JSON tag, the field order or a generator would
// silently orphan every stored artifact. These digests were computed by an
// earlier release and must not be edited to make the test pass.
func TestDesignJSONPinned(t *testing.T) {
	want := map[string]string{
		"n100":  "27104e099e354e12241eab0ebdc5f64845483c8f0792a6a411491b0db683e5ae",
		"n200":  "9e99c04f779f75188b988f7e570ef943473cdbd47533cded3ee4e6a6ec0e84ae",
		"n300":  "86d47afc4f2537bf3ce4e78e1828c194e6d1d563b40172a62474648ec76b9f91",
		"ibm01": "acb6cf91bb7b61b75ad0c3b50c53cab29833b8125f5d1e74b4c8afaaeb0ed932",
		"ibm03": "4ac5c023e4250cd15ce4b9085092127853723302a2df468fd8a9b07bf0c3d509",
		"ibm07": "a55540f1ea5efb49a322b84e18102f175bed5653180464fe3aeb7344d13424ac",
	}
	names := Benchmarks()
	if len(names) != len(want) {
		t.Fatalf("%d built-in designs, %d pinned", len(names), len(want))
	}
	for _, name := range names {
		data, err := json.Marshal(MustBenchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[name] {
			t.Errorf("%s: design JSON SHA-256 %s, want %s", name, got, want[name])
		}
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
