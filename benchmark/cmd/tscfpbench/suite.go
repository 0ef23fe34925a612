package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specFile is the benchmark definition, relative to the repository root the
// subcommands run from.
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the subcommands read.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// setRun is one run of a set: which workload and seed, its report, and
// the digests of its results.
type setRun struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	WallS    float64           `json:"wall_s"`
	Result   report            `json:"result"`
	Digests  map[string]string `json:"digests"`
}

// setFile is a set of runs as written by suite and read by compare.
type setFile struct {
	Seconds float64  `json:"seconds"`
	Trace   int      `json:"trace"`
	Runs    []setRun `json:"runs"`
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// values collects metric over the set's runs of workload.
func (s *setFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// runSuite runs the repository's golden tests, then every workload -runs
// times, one process per run, with the workloads interleaved and run i of
// each using seed+i and measuring BENCHMARK.json's run_seconds, and writes
// the set. It runs from the repository root.
func runSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	trace := fs.Int("trace", 0, "1 = traced runs")
	out := fs.String("out", "", "write the set here (JSON)")
	md := fs.String("md", "", "write the per-layer table here (markdown; traced sets)")
	fs.Parse(args)
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// The golden fixtures pin the flow's results; a set taken on a tree
	// that fails them measures a different program.
	golden := exec.Command("go", "test", "-run", "TestGolden", "-count=1", ".")
	golden.Stdout, golden.Stderr = os.Stderr, os.Stderr
	if err := golden.Run(); err != nil {
		return fmt.Errorf("golden tests: %v", err)
	}
	set := &setFile{Seconds: spec.RunSeconds, Trace: *trace}
	for i := 0; i < *runs; i++ {
		for _, w := range workloadNames() {
			s := *seed + int64(i)
			r, err := runChild(exe, w, s, spec.RunSeconds, *trace)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "suite: %-18s seed %-4d %6.1f s  correct=%v\n", w, s, r.WallS, r.Result.Correct)
			set.Runs = append(set.Runs, *r)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(layerTable(spec, set)), 0o644); err != nil {
			return err
		}
	}
	return summarize(spec, set, os.Stdout)
}

// runChild runs one workload in its own process and parses its last line
// and the digest line before it. A run that printed a result counts even
// when it exited 1 for a failed check; the set records the failure.
func runChild(exe, workload string, seed int64, seconds float64, trace int) (*setRun, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	r := &setRun{Workload: workload, Seed: seed, WallS: wall}
	jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result)
	if jerr == nil {
		if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], digestPrefix) {
			jerr = fmt.Errorf("no digest line")
		} else {
			jerr = json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], digestPrefix)), &r.Digests)
		}
	}
	if jerr != nil {
		return nil, fmt.Errorf("%s seed %d: %v, no result: %v\n%s", workload, seed, err, jerr, stderr.String())
	}
	if !r.Result.Correct {
		os.Stderr.Write(stderr.Bytes())
	}
	return r, nil
}

// summarize prints, per end-to-end metric and workload, the set's median,
// quartile spread and whether the spread is under a third of the bound,
// plus the failure count. It errs if any run failed.
func summarize(spec *benchSpec, set *setFile, w io.Writer) error {
	failed := 0
	for _, r := range set.Runs {
		failed += r.Result.Failed
	}
	fmt.Fprintf(w, "%-20s %-18s %4s %14s %8s %8s %s\n", "metric", "workload", "n", "median", "spread", "bound/3", "steady")
	for _, m := range spec.EndToEnd {
		for _, wl := range spec.Workloads {
			xs := set.values(wl.Name, m.Name)
			if len(xs) == 0 {
				continue
			}
			sp := spread(xs)
			fmt.Fprintf(w, "%-20s %-18s %4d %14.6g %7.2f%% %7.2f%% %v\n",
				m.Name, wl.Name, len(xs), median(xs), 100*sp, 100*m.Bound/3, sp < m.Bound/3)
		}
	}
	fmt.Fprintf(w, "runs: %d, failed operations: %d\n", len(set.Runs), failed)
	if failed > 0 {
		return fmt.Errorf("%d failed operations in the set", failed)
	}
	return nil
}

// runCompare compares the first set against each further set under
// BENCHMARK.json's bounds and directions, and checks that runs of the same
// workload and seed produced the same results; given one set, it prints
// that set's spreads.
func runCompare(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: tscfpbench compare base.json [other.json ...]")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	base, err := loadSet(args[0])
	if err != nil {
		return err
	}
	if len(args) == 1 {
		return summarize(spec, base, w)
	}
	worse, differ := 0, 0
	for _, path := range args[1:] {
		other, err := loadSet(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s vs %s\n", args[0], path)
		worse += compareSets(spec, base, other, w)
		differ += compareResults(base, other, w)
	}
	if worse > 0 || differ > 0 {
		return fmt.Errorf("%d (metric, workload) pairs worse than the bound, %d results differ", worse, differ)
	}
	return nil
}

// compareResults matches the runs of two sets by (workload, seed), which
// gives them the same inputs, and checks that every result both produced
// has the same digest. It prints what it compared and every mismatch, and
// returns the number of mismatches.
func compareResults(base, other *setFile, w io.Writer) int {
	type runKey struct {
		workload string
		seed     int64
	}
	digests := map[runKey]map[string]string{}
	for _, r := range base.Runs {
		digests[runKey{r.Workload, r.Seed}] = r.Digests
	}
	runs, compared, differ := 0, 0, 0
	for _, r := range other.Runs {
		want, ok := digests[runKey{r.Workload, r.Seed}]
		if !ok {
			continue
		}
		runs++
		keys := make([]string, 0, len(r.Digests))
		for k := range r.Digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d, ok := want[k]
			if !ok {
				continue
			}
			compared++
			if d != r.Digests[k] {
				differ++
				fmt.Fprintf(w, "result differs: %s seed %d, %s\n", r.Workload, r.Seed, k)
			}
		}
	}
	fmt.Fprintf(w, "results: %d runs matched by (workload, seed), %d results compared, %d differ\n", runs, compared, differ)
	return differ
}

// verdict classifies other against base for one metric: "worse" or
// "better" when the medians differ by more than the bound in that
// direction, "within" otherwise, and "unresolved" when either side's
// quartile spread exceeds the bound, unless every run of other beats every
// run of base.
func verdict(base, other []float64, lowerBetter bool, bound float64) string {
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	bMin, bMax := extremes(base)
	oMin, oMax := extremes(other)
	allBetter := (lowerBetter && oMax < bMin) || (!lowerBetter && oMin > bMax)
	if math.Max(spread(base), spread(other)) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	d := sign * (median(other) - median(base)) / math.Abs(median(base))
	switch {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "within"
}

func extremes(xs []float64) (lo, hi float64) {
	s := sorted(xs)
	return s[0], s[len(s)-1]
}

// compareSets prints one row per (metric, workload) and returns how many
// end-to-end pairs are worse.
func compareSets(spec *benchSpec, base, other *setFile, w io.Writer) int {
	worse := 0
	fmt.Fprintf(w, "%-36s %-18s %30s %30s %8s %s\n", "metric", "workload", "base median [q1 q3]", "other median [q1 q3]", "delta", "verdict")
	row := func(name, workload string, lowerBetter bool, bound float64, judge bool) {
		b, o := base.values(workload, name), other.values(workload, name)
		if len(b) == 0 || len(o) == 0 {
			return
		}
		bq1, bm, bq3 := quartiles(b)
		oq1, om, oq3 := quartiles(o)
		v := "-"
		if judge {
			v = verdict(b, o, lowerBetter, bound)
			if v == "worse" {
				worse++
			}
		}
		fmt.Fprintf(w, "%-36s %-18s %30s %30s %+7.2f%% %s\n", name, workload,
			fmt.Sprintf("%.5g [%.5g %.5g]", bm, bq1, bq3), fmt.Sprintf("%.5g [%.5g %.5g]", om, oq1, oq3),
			100*ratio(om-bm, math.Abs(bm)), v)
	}
	for _, m := range spec.EndToEnd {
		for _, wl := range spec.Workloads {
			row(m.Name, wl.Name, m.Better == "lower", m.Bound, true)
		}
	}
	for _, m := range spec.PerLayer {
		for _, wl := range spec.Workloads {
			row(m.Name, wl.Name, m.Better == "lower", 0, false)
		}
	}
	return worse
}

// layerTable renders a traced set as markdown: one row per per-layer
// metric, one column per workload, each cell the median over the runs.
func layerTable(spec *benchSpec, set *setFile) string {
	var sb strings.Builder
	seeds := map[int64]bool{}
	for _, r := range set.Runs {
		seeds[r.Seed] = true
	}
	fmt.Fprintf(&sb, "<!-- Generated by `tscfpbench suite -trace 1 -md`; do not edit. -->\n\n")
	fmt.Fprintf(&sb, "Per-layer medians over %d traced runs (%d seeds, %g s each).\n\n", len(set.Runs), len(seeds), set.Seconds)
	sb.WriteString("| metric | unit |")
	for _, wl := range spec.Workloads {
		sb.WriteString(" " + wl.Name + " |")
	}
	sb.WriteString("\n|---|---|" + strings.Repeat("---:|", len(spec.Workloads)) + "\n")
	for _, m := range spec.PerLayer {
		fmt.Fprintf(&sb, "| `%s` | %s |", m.Name, m.Unit)
		for _, wl := range spec.Workloads {
			xs := set.values(wl.Name, m.Name)
			if len(xs) == 0 {
				sb.WriteString(" |")
				continue
			}
			fmt.Fprintf(&sb, " %.4g |", median(xs))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
