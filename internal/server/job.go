package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// failed job later. A built-in design comes from the builtins table; an
// inline one is hashed into its content-address prefix here, once per job.
func (r *JobRequest) normalize() (*keyedDesign, error) {
	if r.Benchmark != "" && r.Design != nil {
		return nil, errors.New("benchmark and design are mutually exclusive")
	}
	var kd *keyedDesign
	design := r.Design
	if r.Benchmark != "" {
		var err error
		if kd, err = builtins.get(r.Benchmark); err != nil {
			return nil, err
		}
		design = kd.Design
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
	if kd == nil {
		return newKeyedDesign(design)
	}
	return kd, nil
}

// keyedDesign is a resolved design with the SHA-256 state of its content
// address after the design's bytes, that is after
// `{"design":<design JSON>,"options":`. contentKey finishes a copy of the
// state, so a design is serialized once per job, and a built-in one once per
// process.
type keyedDesign struct {
	*tscfp.Design
	prefix []byte // the sha256 digest's MarshalBinary state
}

// newKeyedDesign hashes design's content-address prefix. Here and in
// contentKey only encoding errors are checked: a hash.Hash's Write never
// returns one.
func newKeyedDesign(design *tscfp.Design) (*keyedDesign, error) {
	h := sha256.New()
	io.WriteString(h, `{"design":`)
	// The netlist's encoding is the design's (Design.MarshalJSON is
	// json.Marshal of it); an Encoder streams it into the hash from its
	// pooled buffer instead of returning a copy.
	if err := json.NewEncoder(dropNewline{h}).Encode(design.Netlist()); err != nil {
		return nil, err
	}
	io.WriteString(h, `,"options":`)
	prefix, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &keyedDesign{Design: design, prefix: prefix}, nil
}

// dropNewline forwards a json.Encoder's output without the newline that
// ends each value: compact JSON holds no other raw newline.
type dropNewline struct{ w io.Writer }

func (d dropNewline) Write(p []byte) (int, error) {
	if _, err := d.w.Write(bytes.TrimSuffix(p, []byte("\n"))); err != nil {
		return 0, err
	}
	return len(p), nil
}

// contentKey derives the content address of a submission: the SHA-256 of
// the canonical JSON of (design netlist, canonical options, sweep axes),
// `{"design":...,"options":...,"sweep":...}` and a newline, resumed from
// the design's prefix state. A benchmark-by-name submission and the
// equivalent inline design hash identically because the design is
// serialized after synthesis either way; knobs that cannot change the
// result (parallelism, sweep worker count) are excluded.
func contentKey(design *keyedDesign, opts tscfp.RunOptions, sweep *SweepSpec) (string, error) {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(design.prefix); err != nil {
		return "", err
	}
	enc := json.NewEncoder(dropNewline{h})
	opts.Parallelism = 0
	if err := enc.Encode(&opts); err != nil {
		return "", err
	}
	if sweep != nil {
		s := *sweep
		s.Workers = 0
		io.WriteString(h, `,"sweep":`)
		if err := enc.Encode(&s); err != nil {
			return "", err
		}
	}
	io.WriteString(h, "}\n")
	var sum [sha256.Size]byte
	return "sha256:" + hex.EncodeToString(h.Sum(sum[:0])), nil
}

// builtins is the process's one table of Table-1 designs: each is
// synthesized and hashed into its content-address prefix on its first
// submission by name, then shared by every later job, so it pins at most
// the six built-in designs.
var builtins = newDesignTable()

// designTable maps each built-in design name to its lazily built entry.
// The map is fixed at construction, so lookups need no lock.
type designTable map[string]*builtinDesign

type builtinDesign struct {
	once sync.Once
	kd   *keyedDesign
	err  error
}

func newDesignTable() designTable {
	t := make(designTable)
	for _, name := range tscfp.Benchmarks() {
		t[name] = new(builtinDesign)
	}
	return t
}

// get returns the named built-in design, building it on first use.
func (t designTable) get(name string) (*keyedDesign, error) {
	b, ok := t[name]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	b.once.Do(func() {
		var design *tscfp.Design
		if design, b.err = tscfp.Benchmark(name); b.err == nil {
			b.kd, b.err = newKeyedDesign(design)
		}
	})
	return b.kd, b.err
}

// job is one submission moving through the queue and worker pool. The
// fields above mu are set before the job becomes visible to any other
// goroutine and immutable after; everything below is guarded by mu.
type job struct {
	id       string
	seq      uint64
	priority int
	// req is the normalized submission with its Design dropped, and design
	// the resolved design with its content-address prefix, held only while
	// the job can still run: the worker or a queued cancel clears it (under
	// mu) when the record turns terminal, so a retained record pins no
	// decoded netlist. A built-in design stays pinned by the builtins
	// table, which holds at most the six Table-1 designs. designName
	// outlives it for JobStatus.
	req        JobRequest
	design     *keyedDesign
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
