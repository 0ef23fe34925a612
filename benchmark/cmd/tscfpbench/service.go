package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/tscfp"
)

// The service workloads run tscfpd in process: a registry pre-seeded with
// fixture artifacts, server.New with one worker, a loopback httptest
// listener, and two closed-loop clients with one keep-alive connection
// each. A job is submit, then the SSE stream until a terminal state (when
// the submit did not already finish it), then GET of the result bytes.

const (
	fixtureArtifacts = 200 // pre-seeded registry size the set-up rescans
	clients          = 2
	maxJobs          = 256
	// populationJobs is how many distinct submissions service-dedupe
	// replays: four n100 jobs by name and one inline ibm01 job.
	populationJobs = 5
)

// svcFixture holds the inputs both service workloads share.
type svcFixture struct {
	n100, ibm01 *tscfp.Design
	ibm01JSON   []byte
	dir         string // pre-seeded registry directory
	refBytes    []byte // canonical bytes of job 0 from an in-process run
}

// job returns job j of the run's sequence: every fourth an inline ibm01
// design (a ~437 KB body), the others n100 by name, each with its own
// seed. Job 0 is the designated job checked against an in-process run.
func (b *bench) job(fx *svcFixture, j int) (*tscfp.Design, tscfp.RunOptions, []byte, error) {
	seed := deriveSeed(b.seed, j)
	if j%4 == 3 {
		ro := b.shrink(tscfp.RunOptions{Mode: "tsc", Seed: seed, Iterations: 100, GridN: 16, PostProcess: boolp(false)})
		opts, err := json.Marshal(ro)
		if err != nil {
			return nil, ro, nil, err
		}
		var body bytes.Buffer
		body.WriteString(`{"design":`)
		body.Write(fx.ibm01JSON)
		body.WriteString(`,"options":`)
		body.Write(opts)
		body.WriteString(`}`)
		return fx.ibm01, ro, body.Bytes(), nil
	}
	ro := b.shrink(tscfp.RunOptions{Mode: "tsc", Seed: seed, Iterations: 300, GridN: 16, ActivitySamples: 20})
	body, err := json.Marshal(server.JobRequest{Benchmark: "n100", Options: ro})
	return fx.n100, ro, body, err
}

// newFixture synthesizes the designs, runs job 0 in process for the
// reference bytes, and seeds a registry with copies of that payload.
func (b *bench) newFixture() (*svcFixture, error) {
	fx := &svcFixture{dir: filepath.Join(b.dir, "registry")}
	var err error
	if fx.n100, err = tscfp.Benchmark("n100"); err != nil {
		return nil, err
	}
	if fx.ibm01, err = tscfp.Benchmark("ibm01"); err != nil {
		return nil, err
	}
	if fx.ibm01JSON, err = fx.ibm01.MarshalJSON(); err != nil {
		return nil, err
	}
	design, ro, _, err := b.job(fx, 0)
	if err != nil {
		return nil, err
	}
	b.attempted++
	res, _, err := b.runFlow(design, ro, false, "")
	if err != nil {
		return nil, err
	}
	fx.refBytes = b.checkLive(design, ro, res)
	payload, err := res.JSON()
	if err != nil {
		return nil, err
	}
	reg, err := registry.Open(registry.Config{Dir: fx.dir})
	if err != nil {
		return nil, err
	}
	n := fixtureArtifacts
	if b.quick {
		n = 5
	}
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("tscfpbench-fixture-%d", i)))
		if _, _, err := reg.Put("sha256:"+hex.EncodeToString(sum[:]), payload, fmt.Sprintf("j-%06d", i+1), uint64(i+1)); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// service is one running tscfpd instance.
type service struct {
	srv *server.Server
	ts  *httptest.Server
}

func (s *service) close() {
	s.srv.Drain(5 * time.Second)
	s.ts.Close()
}

// startService opens the registry (rescanning every artifact), builds and
// starts the server, and waits for /readyz.
func startService(dir string) (*service, error) {
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	// The job table is bounded below tscfpd's default of 4096 records: each
	// retained record of an inline submission pins its decoded design, and
	// at the default the replay workload grows to 2.9 GB. Restore the
	// default with the change that stops the pinning, so its gain shows in
	// service-dedupe's max_rss_mb.
	srv := server.New(server.Config{Workers: 1, Store: reg, MaxJobs: maxJobs})
	srv.Start()
	s := &service{srv: srv, ts: httptest.NewServer(srv.Handler())}
	c := newClient(s.ts.URL)
	defer c.close()
	resp, err := c.http.Get(s.ts.URL + "/readyz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startServices sets the service up several times, each after a forced GC
// (setup_s is the median), and keeps the last instance.
func (b *bench) startServices(dir string) (*service, error) {
	var s *service
	for i := 0; i < b.setupReps(11); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = startService(dir); err != nil {
			return nil, err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	return s, nil
}

// client is one closed-loop caller with a single keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// jobResult is one job as the client saw it.
type jobResult struct {
	code                   int
	status                 server.JobStatus
	data                   []byte
	submit, fetch, latency time.Duration
}

// do submits body and follows the job to its result bytes.
func (c *client) do(body []byte) (jobResult, error) {
	var r jobResult
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	err = json.NewDecoder(resp.Body).Decode(&r.status)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.code = resp.StatusCode
	r.submit = time.Since(start)
	if err != nil || (r.code != http.StatusOK && r.code != http.StatusCreated) {
		return r, fmt.Errorf("submit: HTTP %d: %v %s", r.code, err, r.status.Error)
	}
	if !r.status.State.Terminal() {
		if r.status, err = c.waitTerminal(r.status.ID); err != nil {
			return r, err
		}
	}
	if r.status.State != server.StateDone {
		return r, fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error)
	}
	t1 := time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + r.status.ID + "/result")
	if err != nil {
		return r, err
	}
	r.data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("result: HTTP %d: %v", resp.StatusCode, err)
	}
	r.fetch = time.Since(t1)
	r.latency = time.Since(start)
	return r, nil
}

// waitTerminal reads the job's SSE stream to its end (the server closes it
// after the terminal state) and returns the last state event.
func (c *client) waitTerminal(id string) (server.JobStatus, error) {
	var last server.JobStatus
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok && event == "state" {
			if err := json.Unmarshal([]byte(v), &last); err != nil {
				return last, fmt.Errorf("events: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	if !last.State.Terminal() {
		return last, fmt.Errorf("events of %s ended in state %q", id, last.State)
	}
	return last, nil
}

// loadOp is one measured job of the closed loop.
type loadOp struct {
	i      int
	r      jobResult
	err    error
	traced bool
}

// runLoad runs the closed loop: each client takes the next job index and
// submits body(i) until b.seconds have passed, then both finish their last
// job. Traced runs profile the second and fourth quarter of the window.
// verify, when set, checks each job on its client goroutine and may drop
// the payload so a long replay window does not hold every copy. It returns
// the ops and the CPU time and allocation of the window.
func (b *bench) runLoad(base string, body func(i int) []byte, verify func(i int, r *jobResult) error) ([]loadOp, opCost, error) {
	var (
		next      atomic.Int64
		profOn    atomic.Bool
		sawTraced atomic.Bool
		mu        sync.Mutex
		ops       []loadOp
		wg        sync.WaitGroup
		m0, m1    runtime.MemStats
		profErr   error
	)
	runtime.ReadMemStats(&m0)
	cpu0, _ := rusage()
	start := time.Now()
	deadline := start.Add(b.seconds)
	for k := 0; k < clients; k++ {
		c := newClient(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			// A traced run goes on past the deadline until a job has started
			// under the profiler, so the overhead always has both sides.
			for first := true; first || time.Now().Before(deadline) || (b.trace && !sawTraced.Load()); first = false {
				i := int(next.Add(1)) - 1
				traced := profOn.Load()
				if traced {
					sawTraced.Store(true)
				}
				r, err := c.do(body(i))
				if err == nil && verify != nil {
					err = verify(i, &r)
				}
				mu.Lock()
				ops = append(ops, loadOp{i: i, r: r, err: err, traced: traced})
				mu.Unlock()
			}
		}()
	}
	if b.trace {
		// The clients run at least until the deadline, past the last toggle.
		for q := 1; q <= 3 && profErr == nil; q++ {
			time.Sleep(time.Until(start.Add(time.Duration(q) * b.seconds / 4)))
			if q%2 == 1 {
				if profErr = b.prof.start("window"); profErr == nil {
					profOn.Store(true)
				}
			} else {
				profOn.Store(false)
				profErr = b.prof.stop()
			}
		}
		if profErr != nil {
			sawTraced.Store(true) // release the clients; the run fails below
		}
	}
	wg.Wait()
	if err := b.prof.stop(); err != nil && profErr == nil {
		profErr = err
	}
	cpu1, _ := rusage()
	runtime.ReadMemStats(&m1)
	return ops, opCost{cpu: cpu1 - cpu0, alloc: m1.TotalAlloc - m0.TotalAlloc}, profErr
}

// recordLoad turns the measured ops into the end-to-end samples and the
// service layer sums; check validates one successful op.
func (b *bench) recordLoad(ops []loadOp, window opCost, check func(op loadOp)) error {
	b.attempted += len(ops)
	var lat []float64
	for _, op := range ops {
		if op.err != nil {
			b.fail("job %d: %v", op.i, op.err)
			continue
		}
		check(op)
		r := op.r
		lat = append(lat, ms(r.latency))
		if op.traced {
			b.tracedMs = append(b.tracedMs, ms(r.latency))
		} else {
			b.plainMs = append(b.plainMs, ms(r.latency))
		}
		b.srv.submit += r.submit
		b.srv.fetch += r.fetch
		b.srv.latency += r.latency
		if s := r.status; s.Started != nil && s.Finished != nil {
			b.srv.queue += s.Started.Sub(s.Submitted)
			b.srv.run += s.Finished.Sub(*s.Started)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no job completed")
	}
	n := float64(len(lat))
	b.latMs = lat
	b.cpuMsPerOp = ms(window.cpu) / n
	b.allocMBPerOp = float64(window.alloc) / 1e6 / n
	return nil
}

// designated runs job 0 (body) through the service and checks its bytes,
// with runtime_sec zeroed, against the in-process run of the same options.
func (b *bench) designated(c *client, fx *svcFixture, body []byte) (jobResult, error) {
	b.attempted++
	r, err := c.do(body)
	if err != nil {
		return r, fmt.Errorf("designated job: %w", err)
	}
	res, err := b.timedDecode(r.data)
	if err != nil {
		b.fail("designated job: %v", err)
		return r, nil
	}
	if got, err := canonical(res); err != nil || !bytes.Equal(got, fx.refBytes) {
		b.fail("designated job: service result differs from the in-process run (%v)", err)
	}
	b.artifacts[r.status.ArtifactID] = r.data
	return r, nil
}

// referenceFlows runs one job of each kind in process under the profiler
// and stage tracer (traced runs only): the stage, anneal and anneal-CPU
// metrics of a service workload describe the flows its jobs run.
func (b *bench) referenceFlows(fx *svcFixture) error {
	if !b.trace {
		return nil
	}
	for _, j := range []int{0, 3} {
		design, ro, _, err := b.job(fx, j)
		if err != nil {
			return err
		}
		b.attempted++
		res, _, err := b.runFlow(design, ro, true, "ref")
		if err != nil {
			return err
		}
		b.checkLive(design, ro, res)
	}
	return nil
}

// checkFetched validates fetched result bytes, records their digest, and
// times the decode and hash layers on them.
func (b *bench) checkFetched(fx *svcFixture, j int, r jobResult) {
	res, err := b.timedDecode(r.data)
	if err != nil {
		b.fail("job %d: %v", j, err)
		return
	}
	design, ro, _, err := b.job(fx, j)
	if err != nil {
		b.fail("job %d: %v", j, err)
		return
	}
	if _, err := b.timedHash(design, ro); err != nil {
		b.fail("job %d: hash: %v", j, err)
	}
	if data, err := canonical(res); err != nil {
		b.fail("job %d: encode: %v", j, err)
	} else {
		b.digest(design.Name(), ro.Seed, data)
	}
	if _, seen := b.artifacts[r.status.ArtifactID]; !seen {
		b.artifacts[r.status.ArtifactID] = r.data
		b.absR1 = append(b.absR1, math.Abs(res.Metrics.R1))
	}
}

// runServiceJobs measures fresh jobs: every submission is new, so each one
// pays decode, hash, queue wait, the flow, encode and the registry write.
func runServiceJobs(b *bench) error {
	fx, err := b.newFixture()
	if err != nil {
		return err
	}
	svc, err := b.startServices(fx.dir)
	if err != nil {
		return err
	}
	defer svc.close()
	_, _, body, err := b.job(fx, 0)
	if err != nil {
		return err
	}
	c := newClient(svc.ts.URL)
	_, err = b.designated(c, fx, body)
	c.close()
	if err != nil {
		return err
	}
	bodies := func(i int) []byte {
		// job fails only to marshal RunOptions; a nil body would fail the
		// submit and count as a failed op.
		_, _, body, _ := b.job(fx, i+1)
		return body
	}
	b.sampleSpeed(12)
	ops, window, err := b.runLoad(svc.ts.URL, bodies, nil)
	b.sampleSpeed(12)
	if err != nil {
		return err
	}
	if err := b.recordLoad(ops, window, func(op loadOp) {
		if op.r.code != http.StatusCreated || op.r.status.Deduped {
			b.fail("job %d: fresh submission was served from the store", op.i+1)
		}
		b.checkFetched(fx, op.i+1, op.r)
	}); err != nil {
		return err
	}
	return b.referenceFlows(fx)
}

// runServiceDedupe measures the dedupe read path: a population of completed
// submissions replayed in seeded order, each answered from the registry
// (hash, Hit, cached Get) without running a flow.
func runServiceDedupe(b *bench) error {
	fx, err := b.newFixture()
	if err != nil {
		return err
	}
	svc, err := b.startServices(fx.dir)
	if err != nil {
		return err
	}
	defer svc.close()

	bodies := make([][]byte, populationJobs)
	for j := range bodies {
		if _, _, bodies[j], err = b.job(fx, j); err != nil {
			return err
		}
	}
	pop := make([]jobResult, populationJobs)
	c := newClient(svc.ts.URL)
	pop[0], err = b.designated(c, fx, bodies[0])
	for j := 1; j < populationJobs && err == nil; j++ {
		b.attempted++
		if pop[j], err = c.do(bodies[j]); err == nil {
			b.checkFetched(fx, j, pop[j])
		}
	}
	c.close()
	if err != nil {
		return fmt.Errorf("population: %w", err)
	}

	// Replays come in rounds, each a seeded permutation of the population,
	// so every run replays the same mix of n100 and ibm01 submissions.
	rng := rand.New(rand.NewSource(b.seed))
	var order []int
	var orderMu sync.Mutex
	pick := func(i int) int {
		orderMu.Lock()
		defer orderMu.Unlock()
		for len(order) <= i {
			order = append(order, rng.Perm(populationJobs)...)
		}
		return order[i]
	}
	verify := func(i int, r *jobResult) error {
		want := pop[pick(i)]
		ok := r.code == http.StatusOK && r.status.Deduped &&
			r.status.ArtifactID == want.status.ArtifactID && bytes.Equal(r.data, want.data)
		r.data = nil
		if !ok {
			return fmt.Errorf("not served as a dedupe hit with the original artifact's bytes")
		}
		return nil
	}
	b.sampleSpeed(12)
	ops, window, err := b.runLoad(svc.ts.URL, func(i int) []byte { return bodies[pick(i)] }, verify)
	b.sampleSpeed(12)
	if err != nil {
		return err
	}
	b.srv.dedupeAttempts += len(ops)
	if err := b.recordLoad(ops, window, func(loadOp) { b.srv.dedupeHits++ }); err != nil {
		return err
	}
	return b.referenceFlows(fx)
}
