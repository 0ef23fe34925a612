package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/tscfp"
)

// sample is one stack of a CPU profile as printed by `go tool pprof
// -traces`: its weight, its goroutine labels and its frames, leaf first.
type sample struct {
	weight time.Duration
	labels map[string]string
	stack  []string
}

// parseTraces reads `go tool pprof -traces` text. Each sample block sits
// between separator lines; optional "key:  value" label lines precede the
// line carrying the weight and the leaf frame, and the caller frames follow
// one per line.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	var cur *sample
	labels := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBody = true
			cur, labels = nil, map[string]string{}
			continue
		}
		text := strings.TrimSpace(line)
		if !inBody || text == "" {
			continue
		}
		fields := strings.Fields(text)
		if cur == nil {
			if k, ok := strings.CutSuffix(fields[0], ":"); ok {
				labels[k] = strings.Trim(strings.TrimSpace(strings.TrimPrefix(text, fields[0])), "[]")
				continue
			}
			w, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("traces: bad sample line %q: %v", line, err)
			}
			out = append(out, sample{weight: w, labels: labels})
			cur = &out[len(out)-1]
			text = strings.TrimSpace(strings.TrimPrefix(text, fields[0]))
		}
		cur.stack = append(cur.stack, strings.TrimSuffix(text, " (inline)"))
	}
	return out, sc.Err()
}

// cpuShares is CPU time per layer over a set of samples.
type cpuShares struct {
	byLayer map[string]time.Duration
	total   time.Duration
}

// attribute sums the samples accepted by keep into their layers.
func attribute(samples []sample, keep func(sample) bool) cpuShares {
	c := cpuShares{byLayer: map[string]time.Duration{}}
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		c.byLayer[stackLayer(s.stack)] += s.weight
		c.total += s.weight
	}
	return c
}

func (c cpuShares) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

// profiler writes CPU profiles into dir, one file per traced segment, in
// named groups; loadGroup reduces a group through `go tool pprof -traces`.
type profiler struct {
	dir    string
	files  map[string][]string
	active *os.File
}

func newProfiler(dir string) *profiler {
	return &profiler{dir: dir, files: map[string][]string{}}
}

func (p *profiler) start(group string) error {
	path := filepath.Join(p.dir, fmt.Sprintf("%s-%03d.pprof", group, len(p.files[group])))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.files[group] = append(p.files[group], path)
	p.active = f
	return nil
}

func (p *profiler) stop() error {
	if p.active == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.active.Close()
	p.active = nil
	return err
}

func (p *profiler) loadGroup(group string) ([]sample, error) {
	files := p.files[group]
	if len(files) == 0 {
		return nil, nil
	}
	args := append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, files...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(&stdout)
}

// Flow stages as labelled in the profile and timed by the stage tracer.
// calibrate runs from the start of Run to the first anneal event; done runs
// from the done event to Run's return.
var stages = []string{"calibrate", string(tscfp.StageAnneal), string(tscfp.StageFinalize),
	string(tscfp.StageSampling), string(tscfp.StagePostProcess)}

// stageTracer times a flow's stages from its progress events and labels the
// flow goroutine (and the solver and blur workers it spawns, which inherit
// labels) with the current stage for the CPU profile.
type stageTracer struct {
	cur    string
	since  time.Time
	alloc0 uint64
	spans  map[string]time.Duration
	allocs map[string]uint64
}

func newStageTracer() *stageTracer {
	t := &stageTracer{spans: map[string]time.Duration{}, allocs: map[string]uint64{}}
	t.enter("calibrate")
	return t
}

// enter closes the current stage and opens stage ("" closes only).
func (t *stageTracer) enter(stage string) {
	if stage == t.cur {
		return
	}
	now := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if t.cur != "" {
		t.spans[t.cur] += now.Sub(t.since)
		t.allocs[t.cur] += ms.TotalAlloc - t.alloc0
	}
	t.cur, t.since, t.alloc0 = stage, now, ms.TotalAlloc
	ctx := context.Background()
	if stage != "" {
		ctx = pprof.WithLabels(ctx, pprof.Labels("stage", stage))
	}
	pprof.SetGoroutineLabels(ctx)
}

func (t *stageTracer) option() tscfp.Option {
	return tscfp.WithProgress(func(ev tscfp.Event) { t.enter(string(ev.Stage)) })
}
