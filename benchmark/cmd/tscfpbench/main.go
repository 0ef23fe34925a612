// Command tscfpbench is the end-to-end benchmark of the TSC-aware
// floorplanner and the tscfpd service built on it.
//
// One run measures one workload in its own process and prints, as the last
// line of standard output, a JSON object with the keys correct, attempted,
// failed and metrics:
//
//	tscfpbench --workload anneal-ibm01 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, taken from a separate traced run (stage spans, a
// stage-labelled CPU profile, anneal work counts, service and registry
// timings). The line before the report lists a digest of each result the
// run produced, keyed by design and flow seed. Subcommands run and compare
// sets of runs:
//
//	tscfpbench suite -runs 10 -seed 1 -out set.json [-trace 1 -md layers.md]
//	tscfpbench compare base.json other.json [...]
//
// See benchmark/README.md for the workloads, the metrics and the noise
// protocol. Run it through benchmark/run.sh, which builds it from source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, in BENCHMARK.json
// order. An "op" is one flow run in the flow workloads and one job (submit
// to result bytes) in the service workloads. Every workload is a closed
// loop, so throughput is the reciprocal of mean latency and is not reported
// apart.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports, in BENCHMARK.json
// order. Layers a workload does not pass through report shares or counts of
// 0, never a time.
func perLayer() []metricSpec {
	m := []metricSpec{{"core.flow_s", "s"}}
	for _, s := range stages {
		m = append(m, metricSpec{"core." + stageKey(s) + "_frac", "frac"})
	}
	m = append(m, metricSpec{"core.span_coverage", "frac"})
	for _, s := range stages {
		m = append(m, metricSpec{"core." + stageKey(s) + "_alloc_mb", "MB"})
	}
	m = append(m,
		metricSpec{"anneal.moves_per_s", "1/s"},
		metricSpec{"anneal.dies_repacked_per_move", "count"},
		metricSpec{"anneal.nets_recomputed_per_move", "count"},
		metricSpec{"anneal.pack_changed_p50", "count"},
		metricSpec{"anneal.sta_rebuild_frac", "frac"},
		metricSpec{"anneal.volt_regrown_frac", "frac"},
		metricSpec{"anneal.entropy_patched_frac", "frac"},
		metricSpec{"anneal.adj_bulk_frac", "frac"},
		metricSpec{"anneal.responses_reused_frac", "frac"},
	)
	for _, l := range annealLayers {
		m = append(m, metricSpec{l + "_share", "frac"})
	}
	m = append(m, metricSpec{"anneal.gc_share", "frac"}, metricSpec{"anneal.other_share", "frac"})
	for _, l := range runLayers {
		m = append(m, metricSpec{l + "_share", "frac"})
	}
	m = append(m, metricSpec{"runtime.gc_share", "frac"}, metricSpec{"other_share", "frac"})
	m = append(m,
		metricSpec{"server.submit_frac", "frac"},
		metricSpec{"server.queue_frac", "frac"},
		metricSpec{"server.run_frac", "frac"},
		metricSpec{"server.fetch_frac", "frac"},
		metricSpec{"server.dedupe_hit_frac", "frac"},
		metricSpec{"tscfp.encode_ms", "ms"},
		metricSpec{"tscfp.decode_ms", "ms"},
		metricSpec{"tscfp.hash_ms", "ms"},
		metricSpec{"registry.open_ms_per_artifact", "ms"},
		metricSpec{"registry.put_ms", "ms"},
		metricSpec{"registry.hit_ms", "ms"},
		metricSpec{"registry.get_ms", "ms"},
		metricSpec{"registry.get_cached_ms", "ms"},
		metricSpec{"trace.overhead_frac", "frac"},
		metricSpec{"host.probe_ms", "ms"},
		metricSpec{"quality.abs_r1_mean", "1"},
		metricSpec{"quality.best_cost_mean", "1"},
	)
	return m
}

// stageKey turns a stage name into a metric-name fragment.
func stageKey(s string) string {
	if s == "post-process" {
		return "post"
	}
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// digests maps each distinct flow input of the run (design/seed) to a
	// digest of its canonical result bytes. It is printed on the line
	// before the report, after digestPrefix, so compare can check that two
	// commits produce the same results at the same seeds.
	digests map[string]string
}

const digestPrefix = "result digests: "

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"anneal-ibm01":      flowRunner(flowWorkloads["anneal-ibm01"]),
	"anneal-n100-volt1": flowRunner(flowWorkloads["anneal-n100-volt1"]),
	"flow-n100-post":    flowRunner(flowWorkloads["flow-n100-post"]),
	"service-jobs":      runServiceJobs,
	"service-dedupe":    runServiceDedupe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			exitOn(runSuite(os.Args[2:]))
			return
		case "compare":
			exitOn(runCompare(os.Args[2:], os.Stdout))
			return
		}
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are derived from")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny budgets, for smoke tests")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		exitOn(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	rep, err := runWorkload(*workload, run, *seed, *seconds, *trace == 1, *quick)
	exitOn(err)
	digests, err := json.Marshal(rep.digests)
	exitOn(err)
	fmt.Println(digestPrefix + string(digests))
	out, err := json.Marshal(rep)
	exitOn(err)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and assembles its report.
func runWorkload(name string, run func(*bench) error, seed int64, seconds float64, trace, quick bool) (*report, error) {
	dir, err := os.MkdirTemp("", "tscfpbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := newBench(name, seed, seconds, trace, quick, dir)
	if err := run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	specs, values := endToEnd, b.endToEndValues()
	if trace {
		specs = perLayer()
		if values, err = b.layerValues(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	} else {
		line := fmt.Sprintf("%s: latency p50 %.4g ms", name, median(b.latMs))
		if p := tailPercentile(len(b.latMs)); p > 0 {
			line += fmt.Sprintf(", p%g %.4g ms", p, percentile(b.latMs, p))
		}
		fmt.Fprintf(os.Stderr, "%s over %d ops (raw); speed probe %.4g ms, x%.4f to reference speed\n",
			line, len(b.latMs), median(b.probe.samples), b.probe.factor())
	}
	rep := &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}, digests: b.digests}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s not measured", name, s.name)
		}
		rep.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(os.Stderr, "%-20s %-36s %14.6g %s\n", name, s.name, v, s.unit)
	}
	return rep, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tscfpbench:", err)
		os.Exit(1)
	}
}

// rusage returns this process's CPU time and peak resident set.
func rusage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, math.NaN()
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
