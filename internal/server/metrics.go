package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/tscfp"
)

// metrics is the daemon's observability surface behind GET /metrics,
// rendered in the Prometheus text exposition format (counters and gauges
// only, no client library dependency). Stage latency is observed from the
// flow's own progress events: a stage's duration is the wall time between
// its first event and the first event of the next stage. Store gauges come
// from the artifact registry's own counters (disk bytes, cache hit ratio,
// evictions, quarantine/rescan counts).
type metrics struct {
	mu sync.Mutex

	submitted    int // admitted jobs, including deduped ones
	deduped      int // submissions served from the store without running
	rejected     int // submissions refused (queue full or draining)
	running      int
	completed    int
	failed       int
	cancelled    int
	panics       int // jobs whose worker recovered a panic (also counted failed)
	cellsDeduped int // sweep cells served from the store (job-level dedupe aside)
	writeErrors  int // response/SSE writes that failed (dead clients)
	jobsGCed     int // terminal job records pruned from the job table

	stageCount   map[string]int
	stageSeconds map[string]float64

	queueDepth func() int
	storeStats func() registry.Stats
}

func newMetrics(queueDepth func() int, storeStats func() registry.Stats) *metrics {
	return &metrics{
		stageCount:   make(map[string]int),
		stageSeconds: make(map[string]float64),
		queueDepth:   queueDepth,
		storeStats:   storeStats,
	}
}

func (m *metrics) jobSubmitted(deduped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
	if deduped {
		m.deduped++
	}
}

func (m *metrics) jobRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

func (m *metrics) jobStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running++
}

// jobCancelledQueued counts a job cancelled before any worker claimed it
// (it never contributed to the running gauge).
func (m *metrics) jobCancelledQueued() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cancelled++
}

func (m *metrics) jobFinished(state State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	switch state {
	case StateDone:
		m.completed++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
}

// jobPanicked counts a job whose flow panicked on its worker goroutine.
func (m *metrics) jobPanicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// cellDeduped counts one sweep cell served from the store.
func (m *metrics) cellDeduped() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cellsDeduped++
}

// writeError counts a failed client write (JSON response or SSE frame).
func (m *metrics) writeError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeErrors++
}

// jobsCollected counts terminal job records pruned by the job-table GC.
func (m *metrics) jobsCollected(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsGCed += n
}

func (m *metrics) observeStage(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stageCount[stage]++
	m.stageSeconds[stage] += d.Seconds()
}

// handler renders the metrics. The page is assembled in a buffer and sent
// with one checked Write: streaming Fprintf straight to the
// ResponseWriter silently dropped client-write failures (the PR 9 bug
// class tscfpd_write_errors_total exists to count).
func (m *metrics) handler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := m.storeStats()
	var buf bytes.Buffer
	m.mu.Lock()
	fmt.Fprintf(&buf, "tscfpd_queue_depth %d\n", m.queueDepth())
	fmt.Fprintf(&buf, "tscfpd_store_artifacts %d\n", st.Artifacts)
	fmt.Fprintf(&buf, "tscfpd_store_disk_bytes %d\n", st.DiskBytes)
	fmt.Fprintf(&buf, "tscfpd_store_cache_bytes %d\n", st.CacheBytes)
	fmt.Fprintf(&buf, "tscfpd_store_cache_hits_total %d\n", st.CacheHits)
	fmt.Fprintf(&buf, "tscfpd_store_cache_misses_total %d\n", st.CacheMisses)
	fmt.Fprintf(&buf, "tscfpd_store_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(&buf, "tscfpd_store_quarantined_total %d\n", st.Quarantined)
	fmt.Fprintf(&buf, "tscfpd_store_rescanned_total %d\n", st.Rescanned)
	fmt.Fprintf(&buf, "tscfpd_jobs_running %d\n", m.running)
	fmt.Fprintf(&buf, "tscfpd_jobs_submitted_total %d\n", m.submitted)
	fmt.Fprintf(&buf, "tscfpd_jobs_deduped_total %d\n", m.deduped)
	fmt.Fprintf(&buf, "tscfpd_jobs_rejected_total %d\n", m.rejected)
	fmt.Fprintf(&buf, "tscfpd_jobs_completed_total %d\n", m.completed)
	fmt.Fprintf(&buf, "tscfpd_jobs_failed_total %d\n", m.failed)
	fmt.Fprintf(&buf, "tscfpd_jobs_cancelled_total %d\n", m.cancelled)
	fmt.Fprintf(&buf, "tscfpd_job_panics_total %d\n", m.panics)
	fmt.Fprintf(&buf, "tscfpd_jobs_gced_total %d\n", m.jobsGCed)
	fmt.Fprintf(&buf, "tscfpd_sweep_cells_deduped_total %d\n", m.cellsDeduped)
	fmt.Fprintf(&buf, "tscfpd_write_errors_total %d\n", m.writeErrors)
	stages := make([]string, 0, len(m.stageCount))
	for s := range m.stageCount {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		fmt.Fprintf(&buf, "tscfpd_stage_latency_seconds_sum{stage=%q} %g\n", s, m.stageSeconds[s])
		fmt.Fprintf(&buf, "tscfpd_stage_latency_seconds_count{stage=%q} %d\n", s, m.stageCount[s])
	}
	m.mu.Unlock()
	if _, err := w.Write(buf.Bytes()); err != nil {
		m.writeError()
	}
}

// stageTimer turns a flow's progress events into per-stage latency
// observations. It runs on the flow goroutine (WithProgress is synchronous)
// so it needs no locking of its own.
type stageTimer struct {
	reg     *metrics
	stage   tscfp.Stage
	started time.Time
}

func newStageTimer(reg *metrics) *stageTimer {
	return &stageTimer{reg: reg}
}

// observe notes a progress event; entering a new stage closes the previous
// one's latency window.
func (t *stageTimer) observe(stage tscfp.Stage) {
	now := time.Now()
	if stage == t.stage {
		return
	}
	if t.stage != "" {
		t.reg.observeStage(string(t.stage), now.Sub(t.started))
	}
	t.stage = stage
	t.started = now
}

// finish closes the last open stage window (on success, StageDone's).
func (t *stageTimer) finish() {
	if t.stage != "" {
		t.reg.observeStage(string(t.stage), time.Since(t.started))
		t.stage = ""
	}
}
