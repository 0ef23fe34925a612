package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/tscfp"
)

// bench is the record of one workload run: what was attempted and failed,
// the end-to-end samples, and (traced runs) the per-layer samples.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	quick   bool
	dir     string
	prof    *profiler
	probe   *speedProbe

	attempted, failed int

	setups                   []float64 // seconds per set-up
	latMs                    []float64 // per measured op
	cpuMsPerOp, allocMBPerOp float64
	digests                  map[string]string // design/seed → result digest

	// Traced runs only, except the layer timings of the result checks.
	flows                      []flowTrace
	plainMs, tracedMs          []float64 // op latency with the profiler off / on
	encodeMs, decodeMs, hashMs []float64
	artifacts                  map[string][]byte // content key → result bytes
	absR1                      []float64
	srv                        serverTimes
}

// flowTrace is one traced flow: wall time, stage spans and allocations, and
// the anneal loop's work counters.
type flowTrace struct {
	wall   time.Duration
	spans  map[string]time.Duration
	allocs map[string]uint64
	stats  core.EvalStats
}

// serverTimes sums the service layers over the measured jobs.
type serverTimes struct {
	submit, queue, run, fetch, latency time.Duration
	dedupeAttempts, dedupeHits         int
}

func newBench(name string, seed int64, seconds float64, trace, quick bool, dir string) *bench {
	return &bench{
		name: name, seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		trace: trace, quick: quick, dir: dir, prof: newProfiler(dir), probe: newSpeedProbe(),
		artifacts: map[string][]byte{}, digests: map[string]string{},
	}
}

// digest records the canonical result bytes of a flow on design with seed.
// Every flow of a workload on one design differs only in its seed, so the
// key names the inputs on any commit; the same key must always give the
// same bytes.
func (b *bench) digest(design string, seed int64, data []byte) {
	key := fmt.Sprintf("%s/%d", design, seed)
	sum := sha256.Sum256(data)
	d := hex.EncodeToString(sum[:8])
	if prev, ok := b.digests[key]; ok && prev != d {
		b.fail("%s: result bytes differ from an earlier result for the same inputs", key)
		return
	}
	b.digests[key] = d
}

// fail counts one failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "tscfpbench: %s: FAIL: %s\n", b.name, fmt.Sprintf(format, args...))
}

// setupReps is how many set-up samples a run takes; setup_s is their
// median.
func (b *bench) setupReps(n int) int {
	if b.quick {
		return 2
	}
	return n
}

// sampleSpeed runs the speed probe n times (once under -quick).
func (b *bench) sampleSpeed(n int) {
	if b.quick {
		n = 1
	}
	b.probe.sample(n)
}

// shrink turns a workload's options into the -quick smoke budget.
func (b *bench) shrink(o tscfp.RunOptions) tscfp.RunOptions {
	if !b.quick {
		return o
	}
	o.Iterations, o.GridN, o.MaxDummyGroups = 20, 8, 2
	if o.ActivitySamples > 0 {
		o.ActivitySamples = 4
	}
	return o
}

// deriveSeed derives the i-th flow seed from the run seed (splitmix64), so
// every input of a run follows from its --seed.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z^(z>>31))>>2) + 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// canonical is the result's JSON with runtime_sec zeroed: the bytes that
// must repeat for the same design, seed and options.
func canonical(res *tscfp.Result) ([]byte, error) {
	r := *res
	r.Metrics.RuntimeSec = 0
	return r.JSON()
}

// contentHash hashes what a content address is made of: the design's
// JSON, the canonical options, and SHA-256 over both.
func contentHash(design *tscfp.Design, ro tscfp.RunOptions) (string, error) {
	d, err := design.MarshalJSON()
	if err != nil {
		return "", err
	}
	c, err := ro.Canonical()
	if err != nil {
		return "", err
	}
	o, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(d)
	h.Write(o)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// timedHash is contentHash, timed as the tscfp.hash layer.
func (b *bench) timedHash(design *tscfp.Design, ro tscfp.RunOptions) (string, error) {
	t0 := time.Now()
	key, err := contentHash(design, ro)
	b.hashMs = append(b.hashMs, ms(time.Since(t0)))
	return key, err
}

// timedDecode decodes and validates result bytes through tscfp.ReadResult,
// timed as the tscfp.decode layer.
func (b *bench) timedDecode(data []byte) (*tscfp.Result, error) {
	t0 := time.Now()
	res, err := tscfp.ReadResult(bytes.NewReader(data))
	b.decodeMs = append(b.decodeMs, ms(time.Since(t0)))
	return res, err
}

// checkLive checks a flow run's Result: it must validate, its JSON must
// decode and validate again, and with runtime_sec zeroed it must be
// byte-identical to every earlier result for the same inputs (see digest).
// It returns the canonical bytes and times the encode, decode and hash
// layers.
func (b *bench) checkLive(design *tscfp.Design, ro tscfp.RunOptions, res *tscfp.Result) []byte {
	if err := res.Validate(); err != nil {
		b.fail("seed %d: %v", ro.Seed, err)
	}
	t0 := time.Now()
	data, err := canonical(res)
	b.encodeMs = append(b.encodeMs, ms(time.Since(t0)))
	if err != nil {
		b.fail("seed %d: encode: %v", ro.Seed, err)
		return nil
	}
	if _, err := b.timedDecode(data); err != nil {
		b.fail("seed %d: %v", ro.Seed, err)
	}
	b.digest(design.Name(), ro.Seed, data)
	key, err := b.timedHash(design, ro)
	if err != nil {
		b.fail("seed %d: hash: %v", ro.Seed, err)
		return data
	}
	if _, seen := b.artifacts[key]; !seen {
		b.artifacts[key] = data
		b.absR1 = append(b.absR1, math.Abs(res.Metrics.R1))
	}
	return data
}

// endToEndValues reports the run's op latency at the reference host speed
// (see probeRefMs) and everything else as measured. Scaling by the probe
// steadied op latency but not CPU time, which the host's steal time does
// not reach, nor set-up, which is timed before the probe samples most of
// the run and read steadier unscaled.
func (b *bench) endToEndValues() map[string]float64 {
	_, rss := rusage()
	return map[string]float64{
		"setup_s":         median(b.setups),
		"latency_p50_ms":  median(b.latMs) * b.probe.factor(),
		"cpu_ms_per_op":   b.cpuMsPerOp,
		"alloc_mb_per_op": b.allocMBPerOp,
		"max_rss_mb":      rss,
	}
}

// ratio is num/den, 0 when den is 0 (a layer the workload did not use).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianOf is the median over traced flows of f.
func (b *bench) medianOf(f func(flowTrace) float64) float64 {
	xs := make([]float64, len(b.flows))
	for i, t := range b.flows {
		xs[i] = f(t)
	}
	return median(xs)
}

// layerValues reduces the traced samples to the per-layer metrics.
func (b *bench) layerValues() (map[string]float64, error) {
	if len(b.flows) == 0 {
		return nil, fmt.Errorf("no traced flow")
	}
	v := map[string]float64{}
	v["core.flow_s"] = b.medianOf(func(t flowTrace) float64 { return t.wall.Seconds() })
	for _, s := range stages {
		v["core."+stageKey(s)+"_frac"] = b.medianOf(func(t flowTrace) float64 {
			return ratio(float64(t.spans[s]), float64(t.wall))
		})
		v["core."+stageKey(s)+"_alloc_mb"] = b.medianOf(func(t flowTrace) float64 { return float64(t.allocs[s]) / 1e6 })
	}
	v["core.span_coverage"] = b.medianOf(func(t flowTrace) float64 {
		var sum time.Duration
		for _, s := range stages {
			sum += t.spans[s]
		}
		return ratio(float64(sum), float64(t.wall))
	})

	counts := map[string]func(flowTrace) float64{
		"anneal.moves_per_s": func(t flowTrace) float64 {
			return ratio(float64(t.stats.Evals), t.spans["anneal"].Seconds())
		},
		"anneal.dies_repacked_per_move": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.DiesRepacked), float64(s.Evals))
		},
		"anneal.nets_recomputed_per_move": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.NetsRecomputed), float64(s.Evals))
		},
		"anneal.pack_changed_p50": func(t flowTrace) float64 {
			s := t.stats
			return float64(s.PackChangedPercentile(0.50))
		},
		"anneal.sta_rebuild_frac": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.STARebuilds), float64(s.STARebuilds+s.STAPatches))
		},
		"anneal.volt_regrown_frac": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.VoltCandidatesRegrown), float64(s.VoltCandidatesRegrown+s.VoltCandidatesReused))
		},
		"anneal.entropy_patched_frac": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.EntropyPatched), float64(s.EntropyPatched+s.EntropyRebuilt))
		},
		"anneal.adj_bulk_frac": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.AdjBulkFallbacks), float64(s.AdjBulkFallbacks+s.AdjIncrementalUpdates))
		},
		"anneal.responses_reused_frac": func(t flowTrace) float64 {
			s := t.stats
			return ratio(float64(s.ResponsesReused), float64(s.ResponsesReused+s.ResponsesComputed))
		},
	}
	for name, f := range counts {
		v[name] = b.medianOf(f)
	}

	window, err := b.prof.loadGroup("window")
	if err != nil {
		return nil, err
	}
	annealSamples := window
	if len(b.prof.files["ref"]) > 0 {
		if annealSamples, err = b.prof.loadGroup("ref"); err != nil {
			return nil, err
		}
	}
	an := attribute(annealSamples, func(s sample) bool { return s.labels["stage"] == "anneal" })
	for _, l := range annealLayers {
		v[l+"_share"] = an.share(l)
	}
	v["anneal.gc_share"] = an.share(layerGC)
	v["anneal.other_share"] = an.share(layerOther)
	run := attribute(window, nil)
	for _, l := range runLayers {
		v[l+"_share"] = run.share(l)
	}
	v["runtime.gc_share"] = run.share(layerGC)
	v["other_share"] = run.share(layerOther)

	lat := float64(b.srv.latency)
	v["server.submit_frac"] = ratio(float64(b.srv.submit), lat)
	v["server.queue_frac"] = ratio(float64(b.srv.queue), lat)
	v["server.run_frac"] = ratio(float64(b.srv.run), lat)
	v["server.fetch_frac"] = ratio(float64(b.srv.fetch), lat)
	v["server.dedupe_hit_frac"] = ratio(float64(b.srv.dedupeHits), float64(b.srv.dedupeAttempts))

	v["tscfp.encode_ms"] = median(b.encodeMs)
	v["tscfp.decode_ms"] = median(b.decodeMs)
	v["tscfp.hash_ms"] = median(b.hashMs)
	probe, err := b.registryProbe()
	if err != nil {
		return nil, err
	}
	for k, x := range probe {
		v[k] = x
	}
	v["trace.overhead_frac"] = median(b.tracedMs)/median(b.plainMs) - 1
	v["host.probe_ms"] = median(b.probe.samples)
	v["quality.abs_r1_mean"] = mean(b.absR1)
	v["quality.best_cost_mean"] = b.meanBestCost()
	return v, nil
}

func (b *bench) meanBestCost() float64 {
	xs := make([]float64, len(b.flows))
	for i, t := range b.flows {
		xs[i] = t.stats.AnnealBestCost
	}
	return mean(xs)
}

// registryProbe times the artifact registry's public functions on this
// run's own result payloads: Put into a fresh registry, reopen it (the
// restart rescan), then Hit, an uncached Get and a cached Get of each.
func (b *bench) registryProbe() (map[string]float64, error) {
	keys := make([]string, 0, len(b.artifacts))
	for k := range b.artifacts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return nil, fmt.Errorf("registry probe: no artifacts")
	}
	cfg := registry.Config{Dir: filepath.Join(b.dir, "probe")}
	reg, err := registry.Open(cfg)
	if err != nil {
		return nil, err
	}
	var put, hit, get, cached []float64
	for i, k := range keys {
		t0 := time.Now()
		if _, _, err := reg.Put(k, b.artifacts[k], "probe", uint64(i+1)); err != nil {
			return nil, err
		}
		put = append(put, ms(time.Since(t0)))
	}
	t0 := time.Now()
	if reg, err = registry.Open(cfg); err != nil {
		return nil, err
	}
	open := ms(time.Since(t0)) / float64(len(keys))
	for _, k := range keys {
		t0 := time.Now()
		_, ok := reg.Hit(k)
		hit = append(hit, ms(time.Since(t0)))
		t0 = time.Now()
		data, ok2 := reg.Get(k)
		get = append(get, ms(time.Since(t0)))
		t0 = time.Now()
		_, ok3 := reg.Get(k)
		cached = append(cached, ms(time.Since(t0)))
		if !ok || !ok2 || !ok3 || !bytes.Equal(data, b.artifacts[k]) {
			b.fail("registry probe: artifact %s not served back intact", k)
		}
	}
	return map[string]float64{
		"registry.open_ms_per_artifact": open,
		"registry.put_ms":               median(put),
		"registry.hit_ms":               median(hit),
		"registry.get_ms":               median(get),
		"registry.get_cached_ms":        median(cached),
	}, nil
}
