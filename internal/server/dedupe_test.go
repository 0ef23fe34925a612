package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/tscfp"
)

// seedDedupe stores a stand-in payload under body's content address,
// computed by the one-shot oracle, so that submitting body is a dedupe hit
// that runs no flow. It returns the address.
func seedDedupe(t testing.TB, store Store, body string) string {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	kd, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := oneShotKey(kd.Design, req.Options, req.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Put(key, []byte(`{"seeded":true}`), "j-000000", 0); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestDedupeHitCountsSurviveDrain: dedupe hits write nothing to disk until
// Drain flushes them, and a registry reopened on the same directory, as a
// restarted daemon's is, reads the counts back.
func TestDedupeHitCountsSurviveDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts, stop := newRegistryServer(t, dir, Config{Workers: 1, QueueCap: 8})
	defer stop()
	key := seedDedupe(t, s.store, testJobBody)
	for i := 0; i < 3; i++ {
		st, resp := submit(t, ts, testJobBody)
		if resp.StatusCode != http.StatusOK || !st.Deduped || st.ArtifactID != key {
			t.Fatalf("submission %d: status %d, %+v; want a dedupe hit on %s", i, resp.StatusCode, st, key)
		}
	}
	if a, _ := openRegistry(t, dir).Lookup(key); a.Hits != 0 {
		t.Fatalf("hits on disk before drain = %d, want 0 (a hit writes nothing)", a.Hits)
	}
	stop()
	if a, ok := openRegistry(t, dir).Lookup(key); !ok || a.Hits != 3 {
		t.Fatalf("artifact after drain and reopen = %+v/%v, want 3 hits", a, ok)
	}
}

// TestConcurrentFirstSubmissionsByName races the first submissions of two
// built-in designs against a fresh builtins table (run it under -race):
// each design is synthesized once, and every submission is a dedupe hit on
// the address the one-shot oracle derives.
func TestConcurrentFirstSubmissionsByName(t *testing.T) {
	reg := openRegistry(t, t.TempDir())
	bodies := map[string]string{}
	keys := map[string]string{}
	for _, name := range []string{"n100", "n200"} {
		bodies[name] = strings.Replace(testJobBody, `"n100"`, fmt.Sprintf("%q", name), 1)
		keys[name] = seedDedupe(t, reg, bodies[name])
	}
	saved := builtins
	builtins = newDesignTable()
	t.Cleanup(func() { builtins = saved })
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, Store: reg})

	const perName = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*perName)
	for name, body := range bodies {
		for i := 0; i < perName; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !st.Deduped || st.ArtifactID != keys[name] {
					errs <- fmt.Errorf("%s: status %d, %+v; want a dedupe hit on %s", name, resp.StatusCode, st, keys[name])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for name, key := range keys {
		if a, _ := reg.Lookup(key); a.Hits != perName {
			t.Errorf("%s: %d hits, want %d", name, a.Hits, perName)
		}
		first, _ := builtins.get(name)
		if again, _ := builtins.get(name); first == nil || first != again {
			t.Errorf("%s: the table holds no single design", name)
		}
	}
}

// maxHitAllocs bounds the allocations of one by-name n100 dedupe hit
// through handleSubmit, request and recorder included: 73 with Go 1.24,
// plus headroom. When each hit synthesized n100, encoded it into the hash
// and rewrote the sidecar, the same hit cost 6,229.
const maxHitAllocs = 90

// TestDedupeHitAllocs pins the dedupe hit's allocation count, so that
// re-synthesizing or re-encoding a built-in design on the read path fails
// here rather than only in the service benchmark.
func TestDedupeHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 8, Store: openRegistry(t, t.TempDir())})
	seedDedupe(t, s.store, testJobBody)
	allocs := testing.AllocsPerRun(50, func() { serveHit(t, s, testJobBody) })
	t.Logf("%.0f allocations per by-name n100 dedupe hit", allocs)
	if allocs > maxHitAllocs {
		t.Fatalf("%.0f allocations per dedupe hit, ceiling %d", allocs, maxHitAllocs)
	}
}

// serveHit submits body straight to handleSubmit and checks that it was a
// dedupe hit.
func serveHit(t testing.TB, s *Server, body string) {
	w := httptest.NewRecorder()
	s.handleSubmit(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("submit status = %d: %s", w.Code, w.Body)
	}
}

// BenchmarkDedupeHit times one by-name n100 dedupe hit through
// handleSubmit: decode, normalize, key, Hit, job record and response.
func BenchmarkDedupeHit(b *testing.B) {
	s := New(Config{Workers: 1, MaxJobs: 8, Store: openRegistry(b, b.TempDir())})
	seedDedupe(b, s.store, testJobBody)
	b.ReportAllocs()
	for b.Loop() {
		serveHit(b, s, testJobBody)
	}
}

// TestInlineDesignUnknownKeys: a key the design schema does not declare,
// on the design or on one of its modules, nets or terminals, is a 400 that
// names the key, not a silently dropped field (a module that spells
// "power" for "power_w" used to run at 0 W).
func TestInlineDesignUnknownKeys(t *testing.T) {
	var base tscfp.Design
	if err := json.Unmarshal([]byte(keyTestDesign), &base); err != nil {
		t.Fatalf("the unmodified design is rejected: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	for key, design := range map[string]string{
		"power":  strings.Replace(keyTestDesign, `"power_w": 1,`, `"power": 1,`, 1),
		"colour": strings.Replace(keyTestDesign, `"dies": 2,`, `"dies": 2, "colour": "red",`, 1),
		"weight": strings.Replace(keyTestDesign, `"name": "n0",`, `"name": "n0", "weight": 2,`, 1),
		"z_um":   strings.Replace(keyTestDesign, `"y_um": 50`, `"y_um": 50, "z_um": 1`, 1),
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"design": `+design+`, "options": {"iterations": 10}}`))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `"`+key+`"`) {
			t.Errorf("unknown key %q: status %d, error %q; want 400 naming the key", key, resp.StatusCode, body.Error)
		}
	}
}
