package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/tscfp"
)

// State is a job's lifecycle phase. Transitions are linear:
// queued -> running -> done|failed|cancelled, except that a queued job
// cancelled before a worker claims it goes straight to cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SweepSpec is the optional sweep block of a submission: the cross product
// of its axes runs as one job, one flow per cell, with tscfp.Grid semantics
// (an empty axis contributes a single default element).
type SweepSpec struct {
	Seeds      []int64      `json:"seeds,omitempty"`
	Modes      []tscfp.Mode `json:"modes,omitempty"`
	GridNs     []int        `json:"grid_ns,omitempty"`
	Iterations []int        `json:"iterations,omitempty"`
	// Workers bounds the in-job fan-out across cells. The default 1 keeps a
	// sweep job inside the single worker-pool slot it was admitted to;
	// larger values trade pool fairness for per-job latency. Workers does
	// not affect results (tscfp's determinism contract) and is excluded
	// from the submission's content address.
	Workers int `json:"workers,omitempty"`
}

// JobRequest is the POST /v1/jobs submission body. Exactly one of
// Benchmark (a built-in design name) and Design (an inline netlist in the
// tscfp JSON schema) must be set.
type JobRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Design    *tscfp.Design    `json:"design,omitempty"`
	Options   tscfp.RunOptions `json:"options"`
	// Priority orders the queue: higher runs first, ties FIFO. Default 0.
	Priority int        `json:"priority,omitempty"`
	Sweep    *SweepSpec `json:"sweep,omitempty"`
}

// normalize resolves the request's design, validates the options and
// canonicalizes them in place through RunOptions.Canonical, then builds the
// flow with NewFlow, so a bad submission is a 400 at admission instead of a
// failed job later.
func (r *JobRequest) normalize() (*tscfp.Design, error) {
	if r.Benchmark != "" && r.Design != nil {
		return nil, errors.New("benchmark and design are mutually exclusive")
	}
	design := r.Design
	if r.Benchmark != "" {
		d, err := tscfp.Benchmark(r.Benchmark)
		if err != nil {
			return nil, err
		}
		design = d
	}
	if design == nil {
		return nil, errors.New("job needs a benchmark name or an inline design")
	}
	opts, err := r.Options.Canonical()
	if err != nil {
		return nil, err
	}
	r.Options = opts
	if r.Sweep != nil {
		for i, ms := range r.Sweep.Modes {
			m, err := tscfp.ParseMode(string(ms))
			if err != nil {
				return nil, err
			}
			r.Sweep.Modes[i] = m
		}
		if r.Sweep.Workers < 0 {
			return nil, fmt.Errorf("negative sweep workers %d", r.Sweep.Workers)
		}
	}
	flowOpts, err := r.Options.Options()
	if err != nil {
		return nil, err
	}
	if _, err := tscfp.NewFlow(design, flowOpts...); err != nil {
		return nil, err
	}
	return design, nil
}

// contentKey derives the content address of a submission: the SHA-256 of
// the canonical JSON of (design netlist, canonical options, sweep axes).
// A benchmark-by-name submission and the equivalent inline design hash
// identically because the design is serialized after synthesis either way;
// knobs that cannot change the result (parallelism, sweep worker count) are
// excluded.
func contentKey(design *tscfp.Design, opts tscfp.RunOptions, sweep *SweepSpec) (string, error) {
	opts.Parallelism = 0
	if sweep != nil {
		s := *sweep
		s.Workers = 0
		sweep = &s
	}
	payload := struct {
		Design  *tscfp.Design    `json:"design"`
		Options tscfp.RunOptions `json:"options"`
		Sweep   *SweepSpec       `json:"sweep,omitempty"`
	}{design, opts, sweep}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&payload); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// job is one submission moving through the queue and worker pool. The
// fields above mu are set before the job becomes visible to any other
// goroutine and immutable after; everything below is guarded by mu.
type job struct {
	id       string
	seq      uint64
	priority int
	// req is the normalized submission with its Design dropped, and design
	// the resolved design, held only while the job can still run: the
	// worker or a queued cancel clears it (under mu) when the record turns
	// terminal, so a retained record pins no decoded or synthesized
	// netlist. designName outlives it for JobStatus.
	req        JobRequest
	design     *tscfp.Design
	designName string
	key        string
	events     *broadcaster
	ctx        context.Context
	cancel     context.CancelFunc

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	artifact  string
	deduped   bool
	lineage   string
	errMsg    string
}

// JobStatus is the wire shape of a job in the REST API.
type JobStatus struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Priority  int    `json:"priority"`
	Design    string `json:"design"`
	Benchmark string `json:"benchmark,omitempty"`
	Sweep     bool   `json:"sweep,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// ArtifactID is the content address of the result once done. Deduped
	// marks a submission served from the store without running; LineageJob
	// then names the job that originally produced the artifact.
	ArtifactID string `json:"artifact_id,omitempty"`
	Deduped    bool   `json:"deduped,omitempty"`
	LineageJob string `json:"lineage_job,omitempty"`
	Error      string `json:"error,omitempty"`
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Priority:   j.priority,
		Design:     j.designName,
		Benchmark:  j.req.Benchmark,
		Sweep:      j.req.Sweep != nil,
		Submitted:  j.submitted,
		ArtifactID: j.artifact,
		Deduped:    j.deduped,
		LineageJob: j.lineage,
		Error:      j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
