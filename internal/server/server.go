// Package server implements tscfpd, the floorplanning-as-a-service daemon:
// an HTTP front end over the public tscfp flow that accepts JSON job
// submissions (single runs and sweep grids), executes them on a bounded
// worker pool with a priority queue, streams per-stage progress as
// server-sent events, and dedupes identical submissions through a
// content-addressed artifact registry.
//
// The serving shape is a stateless single binary: configuration arrives via
// flags/env, health and readiness live at /healthz and /readyz, metrics at
// /metrics, and local state is rebuildable, never irreplaceable. The job
// table is in-memory and GC-bounded (terminal records beyond MaxJobs or
// older than JobRetention are pruned); artifacts live in a disk-backed
// registry (internal/registry) with bounded RAM and disk, which tscfpd keeps
// across restarts under -data-dir and in a temporary directory otherwise.
// SIGTERM maps to Drain: readiness flips, admission stops, and in-flight
// work finishes or is cancelled within a deadline.
//
// REST surface:
//
//	POST   /v1/jobs             submit a job (201; 200 on a dedupe hit)
//	GET    /v1/jobs             list jobs (?state= filters, ?limit=/?offset= paginate)
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel (idempotent)
//	GET    /v1/jobs/{id}/events SSE progress stream (keep-alive comments when idle)
//	GET    /v1/jobs/{id}/result the job's result payload
//	GET    /v1/artifacts/{id}   a stored artifact by content address
//	GET    /healthz, /readyz, /metrics
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/tscfp"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the job worker-pool size; <1 selects GOMAXPROCS.
	Workers int
	// QueueCap bounds the admission backlog (queued, not running, jobs);
	// <1 selects 256. A full queue rejects submissions with 503.
	QueueCap int
	// MaxBodyBytes caps a submission body; <1 selects 8 MiB.
	MaxBodyBytes int64
	// Store is the artifact registry, a *registry.Registry outside tests.
	// It is required: New panics when it is nil.
	Store Store
	// MaxJobs bounds the job table: when the table grows past it, terminal
	// job records are pruned oldest-first (running and queued jobs are
	// never pruned). <1 selects 4096.
	MaxJobs int
	// JobRetention prunes terminal job records that finished longer ago
	// than this, regardless of count. 0 keeps them until MaxJobs evicts.
	JobRetention time.Duration
	// SSEKeepAlive is the interval between ": keepalive" comment frames on
	// idle event streams, so LB/proxy idle timeouts do not sever them.
	// <=0 selects 15s.
	SSEKeepAlive time.Duration
}

// Server is one tscfpd instance. Create with New, mount Handler, call
// Start, and Drain before exit.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   *queue
	store   Store
	metrics *metrics

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*job
	order []*job // submission order, for listing and oldest-first GC
	seq   uint64

	draining atomic.Bool
	wg       sync.WaitGroup
	started  atomic.Bool
}

// New builds a Server from cfg. Workers do not run until Start.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is nil; open a *registry.Registry for it")
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 256
	}
	if cfg.MaxBodyBytes < 1 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 4096
	}
	if cfg.SSEKeepAlive <= 0 {
		cfg.SSEKeepAlive = 15 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		queue:     newQueue(cfg.QueueCap),
		store:     cfg.Store,
		jobs:      make(map[string]*job),
		baseCtx:   ctx,
		cancelAll: cancel,
		// Seed job IDs above every ID recorded in stored lineage, so a
		// restarted daemon never reuses the ID an on-disk artifact already
		// names as its producer.
		seq: cfg.Store.LastJobSeq(),
	}
	s.metrics = newMetrics(s.queue.depth, s.store.Stats)

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			s.metrics.writeError()
		}
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.metrics.handler)
	return s
}

// Handler returns the HTTP surface, ready to mount on any http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
}

// Drain is the SIGTERM half of graceful shutdown: readiness flips to 503,
// admission stops (POST /v1/jobs and the queue both reject), and admitted
// work gets timeout to finish. Whatever is still in flight at the deadline
// is cancelled through its per-job context (tscfp.Flow.Run honors it down
// to annealing moves and solver sweeps). Drain returns once every worker
// has exited; the caller still owns http.Server.Shutdown for the listener.
func (s *Server) Drain(timeout time.Duration) {
	s.draining.Store(true)
	s.queue.close()
	if !s.started.Load() {
		s.cancelAll()
		return
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.cancelAll()
		<-done
	}
	s.cancelAll()
}

// GC prunes terminal job records past the table bounds now. register prunes
// on every admission; this is for a periodic sweep so an idle daemon still
// ages records out under JobRetention.
func (s *Server) GC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(time.Now())
}

// worker serves queued jobs until the queue closes. A panic inside a job
// fails that job, not the daemon: execute recovers it on this goroutine and
// the worker goes on serving. A panic on a goroutine the flow spawns itself
// reaches a recover too: par.For (the parallel SOR and blur, replica
// chains, speculative batches) re-raises it on this goroutine, and a
// tscfp.Stream worker turns it into its sweep cell's error.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.run(j)
	}
}

// ---- submission ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.jobRejected()
		w.Header().Set("Retry-After", "10")
		s.httpError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.httpError(w, http.StatusBadRequest, "decode job: %v", err)
		return
	}
	design, err := req.normalize()
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}
	key, err := contentKey(design, req.Options, req.Sweep)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "hash job: %v", err)
		return
	}

	req.Design = nil
	j := &job{
		priority:   req.Priority,
		req:        req,
		designName: design.Name(),
		key:        key,
		events:     newBroadcaster(),
		submitted:  time.Now(),
		state:      StateQueued,
	}
	s.mu.Lock()
	s.seq++
	j.seq = s.seq
	j.id = fmt.Sprintf("j-%06d", s.seq)
	s.mu.Unlock()

	// Dedupe at admission: an identical prior submission's artifact serves
	// this one without a run. The job record still exists — with lineage —
	// so the lifecycle API and SSE stream behave uniformly. (Best-effort:
	// two identical jobs racing through admission both run; the store's
	// first-writer-wins put keeps lineage consistent.)
	if art, ok := s.store.Hit(key); ok {
		now := time.Now()
		j.state = StateDone
		j.started, j.finished = now, now
		j.artifact = art.ID
		j.deduped = true
		j.lineage = art.JobID
		j.events.publish("state", "state", j.status())
		j.events.close()
		s.register(j)
		s.metrics.jobSubmitted(true)
		s.writeJSON(w, http.StatusOK, j.status())
		return
	}

	j.design = design
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	s.register(j)
	if err := s.queue.push(j); err != nil {
		s.unregister(j)
		s.metrics.jobRejected()
		w.Header().Set("Retry-After", "10")
		s.httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.metrics.jobSubmitted(false)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.writeJSON(w, http.StatusCreated, j.status())
}

func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.gcLocked(time.Now())
}

func (s *Server) unregister(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.id)
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// gcLocked bounds the job table: terminal records are pruned oldest-first
// while the table exceeds MaxJobs, and terminal records that finished
// before now-JobRetention are pruned regardless of count. Queued and
// running jobs are never pruned — the bound applies to history, not work.
// Requires s.mu.
func (s *Server) gcLocked(now time.Time) {
	var cut time.Time
	if s.cfg.JobRetention > 0 {
		cut = now.Add(-s.cfg.JobRetention)
	}
	excess := len(s.order) - s.cfg.MaxJobs
	if excess <= 0 && cut.IsZero() {
		return
	}
	kept := make([]*job, 0, len(s.order))
	removed := 0
	for _, j := range s.order {
		j.mu.Lock()
		terminal := j.state.Terminal()
		finished := j.finished
		j.mu.Unlock()
		aged := terminal && !cut.IsZero() && finished.Before(cut)
		if terminal && (aged || excess > 0) {
			delete(s.jobs, j.id)
			removed++
			if excess > 0 {
				excess--
			}
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
	if removed > 0 {
		s.metrics.jobsCollected(removed)
	}
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// ---- execution ----

func (s *Server) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.metrics.jobStarted()
	j.events.publish("state", "state", j.status())

	artifact, err := s.execute(j)

	j.mu.Lock()
	j.finished = time.Now()
	j.design = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.artifact = artifact
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	j.cancel()
	s.metrics.jobFinished(state)
	j.events.publish("state", "state", j.status())
	j.events.close()
}

// execute runs the job's flow. A panic on this goroutine becomes the job's
// error (so the job ends failed with the panic value in its message): the
// stack is logged once and tscfpd_job_panics_total counts it.
func (s *Server) execute(j *job) (artifact string, err error) {
	defer func() {
		if v := recover(); v != nil {
			log.Printf("job %s panicked: %v\n%s", j.id, v, debug.Stack())
			s.metrics.jobPanicked()
			artifact, err = "", fmt.Errorf("job panicked: %v", v)
		}
	}()
	if j.req.Sweep != nil {
		return s.runSweep(j)
	}
	return s.runSingle(j)
}

// runSingle executes one flow and stores its Result under the job's
// content address.
func (s *Server) runSingle(j *job) (string, error) {
	opts, err := j.req.Options.Options()
	if err != nil {
		return "", err
	}
	timer := newStageTimer(s.metrics)
	opts = append(opts, tscfp.WithProgress(func(ev tscfp.Event) {
		timer.observe(ev.Stage)
		j.events.publish("progress", "progress:"+string(ev.Stage), ev)
	}))
	res, err := tscfp.Run(j.ctx, j.design, opts...)
	if err != nil {
		return "", err
	}
	timer.finish()
	data, err := res.JSON()
	if err != nil {
		return "", err
	}
	if _, _, err := s.store.Put(j.key, data, j.id, j.seq); err != nil {
		return "", err
	}
	return j.key, nil
}

// sweepCell is one cell's entry in a sweep manifest and its SSE "cell"
// event payload.
type sweepCell struct {
	Cell     tscfp.Cell `json:"cell"`
	Artifact string     `json:"artifact_id,omitempty"`
	Deduped  bool       `json:"deduped,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// sweepManifest is the artifact a sweep job produces: per-cell artifact
// IDs (each cell's Result is stored individually under the same address an
// equivalent single-run submission would hash to) plus error text for
// failed cells.
type sweepManifest struct {
	Cells []sweepCell `json:"cells"`
}

// runSweep executes a sweep grid via tscfp.Stream, publishing one SSE
// "cell" event per completed cell. If every cell is already in the store
// the whole job dedupes without running; otherwise the full grid runs
// (store puts are idempotent, so previously-stored cells keep their
// original lineage and are flagged Deduped in the manifest). Cells served
// from the store count as dedupe hits on their artifacts — a sweep hitting
// a cached cell is the same event as a single run hitting it.
func (s *Server) runSweep(j *job) (string, error) {
	spec := j.req.Sweep
	grid := tscfp.Grid{
		Design:     j.design,
		Seeds:      spec.Seeds,
		Modes:      spec.Modes,
		GridNs:     spec.GridNs,
		Iterations: spec.Iterations,
	}
	baseOpts, err := j.req.Options.Options()
	if err != nil {
		return "", err
	}
	grid.Options = baseOpts
	cells := grid.Cells()

	keys := make([]string, len(cells))
	outs := make([]sweepCell, len(cells))
	allCached := true
	for i, c := range cells {
		keys[i], err = contentKey(j.design, c.Overlay(j.req.Options), nil)
		if err != nil {
			return "", err
		}
		outs[i].Cell = c
		if a, ok := s.store.Hit(keys[i]); ok {
			outs[i].Artifact = a.ID
			outs[i].Deduped = true
			s.metrics.cellDeduped()
		} else {
			allCached = false
		}
	}

	if !allCached {
		workers := spec.Workers
		if workers < 1 {
			workers = 1
		}
		ch, err := tscfp.Stream(j.ctx, grid, tscfp.WithWorkers(workers))
		if err != nil {
			return "", err
		}
		for sr := range ch {
			i := sr.Cell.Index
			if sr.Err != nil {
				outs[i].Artifact, outs[i].Deduped = "", false
				outs[i].Error = sr.Err.Error()
			} else {
				data, jerr := sr.Result.JSON()
				if jerr != nil {
					outs[i].Error = jerr.Error()
				} else if a, existed, perr := s.store.Put(keys[i], data, j.id, j.seq); perr != nil {
					outs[i].Error = perr.Error()
				} else {
					outs[i].Artifact = a.ID
					outs[i].Deduped = existed
					outs[i].Error = ""
				}
			}
			j.events.publish("cell", fmt.Sprintf("cell:%d", i), outs[i])
		}
		if err := j.ctx.Err(); err != nil {
			return "", err
		}
	} else {
		for i := range outs {
			j.events.publish("cell", fmt.Sprintf("cell:%d", i), outs[i])
		}
	}

	for _, o := range outs {
		if o.Error != "" {
			return "", fmt.Errorf("cell %d (seed %d, %s): %s",
				o.Cell.Index, o.Cell.Seed, o.Cell.Mode, o.Error)
		}
	}
	data, err := json.Marshal(sweepManifest{Cells: outs})
	if err != nil {
		return "", err
	}
	if _, _, err := s.store.Put(j.key, data, j.id, j.seq); err != nil {
		return "", err
	}
	return j.key, nil
}

// ---- lifecycle handlers ----

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := State(q.Get("state"))
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad offset: %v", err)
		return
	}
	limit, err := queryInt(q.Get("limit"), -1)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad limit: %v", err)
		return
	}
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if filter != "" && st.State != filter {
			continue
		}
		out = append(out, st)
	}
	total := len(out)
	if offset > len(out) {
		offset = len(out)
	}
	out = out[offset:]
	if limit >= 0 && limit < len(out) {
		out = out[:limit]
	}
	s.writeJSON(w, http.StatusOK, struct {
		Jobs  []JobStatus `json:"jobs"`
		Total int         `json:"total"`
	}{out, total})
}

// queryInt parses a non-negative pagination parameter, def when absent.
func queryInt(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	return n, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

// handleCancel cancels a job. Idempotent: cancelling a terminal job
// reports its (unchanged) state. A still-queued job is removed from the
// queue and finalized directly; a running one is cancelled through its
// context and finalized by its worker.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		if removed := s.queue.remove(j.id); removed != nil {
			now := time.Now()
			j.mu.Lock()
			j.state = StateCancelled
			j.finished = now
			j.design = nil
			j.errMsg = "cancelled before start"
			j.mu.Unlock()
			s.metrics.jobCancelledQueued()
			j.events.publish("state", "state", j.status())
			j.events.close()
		}
		j.cancel()
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// write reports delivery failure so the handler bails on a dead client
	// instead of streaming into the void until the job ends.
	write := func(ev sseEvent) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data); err != nil {
			s.metrics.writeError()
			return false
		}
		fl.Flush()
		return true
	}
	hist, live := j.events.subscribe()
	for _, ev := range hist {
		if !write(ev) {
			if live != nil {
				j.events.unsubscribe(live)
			}
			return
		}
	}
	if live == nil {
		// Stream already closed; the replay's state event was terminal.
		return
	}
	defer j.events.unsubscribe(live)
	// Keep-alive comments defeat LB/proxy idle timeouts between progress
	// events (a queued job behind a long blocker can be silent for minutes)
	// and double as dead-client probes: a failed keep-alive write ends the
	// handler even if the request context has not fired yet.
	keepalive := time.NewTicker(s.cfg.SSEKeepAlive)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-live:
			if !open {
				// Stream closed while we were attached. Progress delivery is
				// lossy under backpressure, so re-emit the terminal state
				// explicitly rather than trusting the last delivered event.
				data, _ := json.Marshal(j.status())
				write(sseEvent{name: "state", data: data})
				return
			}
			if !write(ev) {
				return
			}
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				s.metrics.writeError()
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	if st.State != StateDone {
		s.httpError(w, http.StatusConflict, "job is %s, not done", st.State)
		return
	}
	data, ok := s.store.Get(st.ArtifactID)
	if !ok {
		s.httpError(w, http.StatusNotFound, "artifact %s not in store", st.ArtifactID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.metrics.writeError()
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	data, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "no such artifact")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.metrics.writeError()
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if _, err := io.WriteString(w, "ready\n"); err != nil {
		s.metrics.writeError()
	}
}

// ---- helpers ----

// writeJSON encodes v to the client. An Encode failure (almost always a
// client that hung up mid-response) is counted rather than silently
// dropped; the response is already committed, so bailing is all a handler
// can do, and every caller writes last.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.metrics.writeError()
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}
