package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustPut(t *testing.T, r *Registry, id string, data []byte, jobID string, seq uint64) Artifact {
	t.Helper()
	a, existed, err := r.Put(id, data, jobID, seq)
	if err != nil {
		t.Fatalf("put %s: %v", id, err)
	}
	if existed {
		t.Fatalf("put %s: unexpectedly existed", id)
	}
	return a
}

// testID builds a well-formed sha256: address from a short tag.
func testID(tag string) string {
	return "sha256:" + strings.Repeat("0", 64-len(tag)) + tag
}

// sidecar reads id's durable record, the <hex>.meta.json file that Put and
// Flush write; ok is false when no sidecar exists under artifacts/.
func sidecar(t *testing.T, dir, id string) (Artifact, bool) {
	t.Helper()
	path := filepath.Join(dir, "artifacts", fileStem(id)+metaSuffix)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return Artifact{}, false
	}
	m, err := readMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	return m.Artifact, true
}

// diskPayloadBytes sums payload file sizes under artifacts/ (sidecars
// excluded), for checking the on-disk bound against the actual filesystem.
func diskPayloadBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), metaSuffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestPutGetRoundTrip pins the basic contract: a put artifact comes back
// byte-identical, first writer wins on lineage, and the payload + sidecar
// land on disk under the address's hex with no temp litter.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir})

	id := testID("a1")
	payload := []byte(`{"result": 1}`)
	a := mustPut(t, r, id, payload, "j-000001", 1)
	if a.ID != id || a.JobID != "j-000001" || a.Bytes != len(payload) || a.Hits != 0 {
		t.Fatalf("put artifact = %+v", a)
	}

	got, ok := r.Get(id)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = %q/%v", got, ok)
	}

	b, existed, err := r.Put(id, []byte("other"), "j-000002", 2)
	if err != nil || !existed || b.JobID != "j-000001" {
		t.Fatalf("second put = %+v existed=%v err=%v, want original lineage kept", b, existed, err)
	}
	if got, _ := r.Get(id); !bytes.Equal(got, payload) {
		t.Fatal("second put replaced the first writer's payload")
	}

	stem := strings.TrimPrefix(id, "sha256:")
	if _, err := os.Stat(filepath.Join(dir, "artifacts", stem)); err != nil {
		t.Fatalf("payload file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "artifacts", stem+metaSuffix)); err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	tmp, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(tmp) != 0 {
		t.Fatalf("tmp dir not empty after puts: %v %v", tmp, err)
	}
}

// TestReopenRebuildsIndex is the durability core: a reopened registry
// serves every artifact byte-identically with lineage, flushed hit counts,
// and the job-sequence high-water intact, without putting payloads back in
// RAM until they are asked for.
func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir})
	payloads := map[string][]byte{}
	for i := 1; i <= 5; i++ {
		id := testID(fmt.Sprintf("c%d", i))
		data := bytes.Repeat([]byte{byte(i)}, 100*i)
		mustPut(t, r, id, data, fmt.Sprintf("j-%06d", i), uint64(i))
		payloads[id] = data
	}
	if _, ok := r.Hit(testID("c3")); !ok {
		t.Fatal("hit missed")
	}
	if _, ok := r.Hit(testID("c3")); !ok {
		t.Fatal("hit missed")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	r2 := mustOpen(t, Config{Dir: dir})
	st := r2.Stats()
	if st.Artifacts != 5 || st.Rescanned != 5 || st.Quarantined != 0 {
		t.Fatalf("rescan stats = %+v", st)
	}
	if st.CacheBytes != 0 {
		t.Fatalf("rescan preloaded %d payload bytes into RAM; index must stay metadata-only", st.CacheBytes)
	}
	if r2.LastJobSeq() != 5 {
		t.Fatalf("LastJobSeq = %d, want 5", r2.LastJobSeq())
	}
	a, ok := r2.Hit(testID("c3"))
	if !ok || a.Hits != 3 || a.JobID != "j-000003" {
		t.Fatalf("reopened artifact = %+v/%v, want 2 persisted hits + this one, and lineage", a, ok)
	}
	for id, want := range payloads {
		got, ok := r2.Get(id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened get %s = %d bytes/%v, want %d", id, len(got), ok, len(want))
		}
	}
}

// TestRescanQuarantinesCorruption covers every corruption class the rescan
// must survive: truncated payload, flipped payload bytes, unparseable
// sidecar, sidecar without payload, payload without sidecar. Each is moved
// to quarantine/ and counted; the healthy artifact still serves.
func TestRescanQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir})
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = testID(fmt.Sprintf("d%d", i))
		mustPut(t, r, ids[i], []byte(strings.Repeat("x", 50+i)), "j-000001", 1)
	}
	arts := filepath.Join(dir, "artifacts")
	stem := func(id string) string { return strings.TrimPrefix(id, "sha256:") }

	// ids[0]: truncated payload.
	if err := os.Truncate(filepath.Join(arts, stem(ids[0])), 10); err != nil {
		t.Fatal(err)
	}
	// ids[1]: same size, flipped content (hash mismatch).
	if err := os.WriteFile(filepath.Join(arts, stem(ids[1])), []byte(strings.Repeat("y", 51)), 0o644); err != nil {
		t.Fatal(err)
	}
	// ids[2]: unparseable sidecar.
	if err := os.WriteFile(filepath.Join(arts, stem(ids[2])+metaSuffix), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// ids[3]: payload deleted, sidecar orphaned.
	if err := os.Remove(filepath.Join(arts, stem(ids[3]))); err != nil {
		t.Fatal(err)
	}
	// plus an orphan payload with no sidecar at all.
	if err := os.WriteFile(filepath.Join(arts, strings.Repeat("e", 64)), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := mustOpen(t, Config{Dir: dir})
	st := r2.Stats()
	if st.Artifacts != 1 || st.Rescanned != 1 {
		t.Fatalf("stats after corrupt rescan = %+v, want exactly the healthy artifact", st)
	}
	if st.Quarantined != 5 {
		t.Fatalf("quarantined = %d, want 5", st.Quarantined)
	}
	if got, ok := r2.Get(ids[4]); !ok || string(got) != strings.Repeat("x", 54) {
		t.Fatalf("healthy artifact lost: %q/%v", got, ok)
	}
	for _, id := range ids[:4] {
		if _, ok := r2.Get(id); ok {
			t.Fatalf("corrupt artifact %s still served", id)
		}
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) == 0 {
		t.Fatalf("quarantine dir empty: %v %v", q, err)
	}
	left, _ := os.ReadDir(arts)
	if len(left) != 2 {
		t.Fatalf("artifacts dir has %d files after quarantine, want the healthy pair", len(left))
	}
}

// TestGetQuarantinesRuntimeRot: a payload corrupted underneath a running
// registry (after its cache entry is gone) is quarantined on read, not
// served.
func TestGetQuarantinesRuntimeRot(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir, MaxCacheBytes: -1}) // no cache: every Get reads disk
	id := testID("f1")
	mustPut(t, r, id, []byte("good bytes"), "j-000001", 1)
	if err := os.WriteFile(filepath.Join(dir, "artifacts", strings.TrimPrefix(id, "sha256:")),
		[]byte("rot bytes!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, ok := r.Get(id); ok {
		t.Fatalf("served rotten payload %q", data)
	}
	if st := r.Stats(); st.Artifacts != 0 {
		t.Fatalf("rotten artifact still indexed: %d artifacts", st.Artifacts)
	}
	if st := r.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

// TestCacheBoundAndCounters churns more payload bytes than the cache bound
// and checks the RAM invariant (CacheBytes <= MaxCacheBytes always), the
// hit/miss counters, and that cache eviction never loses data.
func TestCacheBoundAndCounters(t *testing.T) {
	dir := t.TempDir()
	const bound = 1024
	r := mustOpen(t, Config{Dir: dir, MaxCacheBytes: bound})
	const n = 20
	for i := 0; i < n; i++ {
		id := testID(fmt.Sprintf("a%d", i))
		mustPut(t, r, id, bytes.Repeat([]byte{byte(i)}, 300), "j-000001", 1)
		if st := r.Stats(); st.CacheBytes > bound {
			t.Fatalf("cache bytes %d exceed bound %d after put %d", st.CacheBytes, bound, i)
		}
	}
	// Every payload still serves; cold ones come from disk (misses).
	for i := 0; i < n; i++ {
		id := testID(fmt.Sprintf("a%d", i))
		data, ok := r.Get(id)
		if !ok || len(data) != 300 || data[0] != byte(i) {
			t.Fatalf("get %d = %d bytes/%v", i, len(data), ok)
		}
		if st := r.Stats(); st.CacheBytes > bound {
			t.Fatalf("cache bytes %d exceed bound %d during reads", st.CacheBytes, bound)
		}
	}
	st := r.Stats()
	if st.CacheMisses == 0 {
		t.Fatal("no cache misses despite bound-forced evictions")
	}
	// The most recent read is hot: reading it again must hit RAM.
	hits := st.CacheHits
	if _, ok := r.Get(testID(fmt.Sprintf("a%d", n-1))); !ok {
		t.Fatal("hot get missed")
	}
	if r.Stats().CacheHits != hits+1 {
		t.Fatal("hot re-read did not count a cache hit")
	}
	// An oversized payload must not enter the cache at all.
	mustPut(t, r, testID("big"), bytes.Repeat([]byte{1}, bound+1), "j-000001", 1)
	if st := r.Stats(); st.CacheBytes > bound {
		t.Fatalf("oversized payload cached: %d > %d", st.CacheBytes, bound)
	}
}

// TestDiskRetentionChurn is the acceptance churn test: with MaxStoreBytes
// set, on-disk payload bytes never exceed the bound (checked against the
// real filesystem, not just the counter), evictions are counted, and the
// most recently used artifacts survive.
func TestDiskRetentionChurn(t *testing.T) {
	dir := t.TempDir()
	const bound = 4096
	r := mustOpen(t, Config{Dir: dir, MaxStoreBytes: bound, MaxCacheBytes: 1024})
	const n = 40
	for i := 0; i < n; i++ {
		id := testID(fmt.Sprintf("b%d", i))
		mustPut(t, r, id, bytes.Repeat([]byte{byte(i)}, 512), "j-000001", 1)
		st := r.Stats()
		if st.DiskBytes > bound {
			t.Fatalf("disk bytes counter %d exceeds bound %d after put %d", st.DiskBytes, bound, i)
		}
		if got := diskPayloadBytes(t, dir); got > bound {
			t.Fatalf("on-disk payload bytes %d exceed bound %d after put %d", got, bound, i)
		}
		if st.CacheBytes > 1024 {
			t.Fatalf("cache bytes %d exceed bound during churn", st.CacheBytes)
		}
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite churn past the byte bound")
	}
	if st.Artifacts != 8 { // bound/512
		t.Fatalf("artifacts = %d, want 8 within the bound", st.Artifacts)
	}
	// The newest artifact survived; the oldest was evicted and reads as a
	// clean miss everywhere.
	if _, ok := r.Get(testID(fmt.Sprintf("b%d", n-1))); !ok {
		t.Fatal("newest artifact evicted")
	}
	if _, ok := sidecar(t, dir, testID("b0")); ok {
		t.Fatal("oldest artifact survived past the bound")
	}
	if _, ok := r.Get(testID("b0")); ok {
		t.Fatal("evicted artifact still served")
	}
	// A reopen agrees with the bounded on-disk state.
	r2 := mustOpen(t, Config{Dir: dir, MaxStoreBytes: bound})
	if st := r2.Stats(); st.Artifacts != 8 || st.DiskBytes > bound {
		t.Fatalf("reopened stats = %+v", st)
	}
}

// TestAgeRetention ages artifacts out with a fake clock: EnforceRetention
// evicts entries idle past MaxAge and keeps the rest.
func TestAgeRetention(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	r := mustOpen(t, Config{Dir: dir, MaxAge: time.Hour, Now: clock})
	mustPut(t, r, testID("old1"), []byte("old"), "j-000001", 1)
	now = now.Add(30 * time.Minute)
	mustPut(t, r, testID("new1"), []byte("new"), "j-000002", 2)
	now = now.Add(45 * time.Minute) // old1 idle 75m, new1 idle 45m
	r.EnforceRetention()
	if _, ok := sidecar(t, dir, testID("old1")); ok {
		t.Fatal("aged artifact survived retention")
	}
	if _, ok := sidecar(t, dir, testID("new1")); !ok {
		t.Fatal("fresh artifact evicted")
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// A hit refreshes the access time and saves the artifact from aging.
	if _, ok := r.Hit(testID("new1")); !ok {
		t.Fatal("hit missed")
	}
	now = now.Add(50 * time.Minute) // idle only 50m since the hit
	r.EnforceRetention()
	if _, ok := sidecar(t, dir, testID("new1")); !ok {
		t.Fatal("recently-hit artifact aged out")
	}
}

// TestOpenErrors: a missing Dir is an error; a Dir path occupied by a file
// is an error; corruption never is (covered above).
func TestOpenErrors(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: f}); err == nil {
		t.Fatal("Open on a file path succeeded")
	}
}

// TestFileStemSafety: hostile or malformed ids never escape the artifacts
// directory — anything that is not a clean sha256 address is re-hashed.
func TestFileStemSafety(t *testing.T) {
	for _, id := range []string{"../../etc/passwd", "sha256:../escape", "sha256:UPPER", "", "sha256:"} {
		stem := fileStem(id)
		if !isHex(stem) || len(stem) != 64 {
			t.Fatalf("fileStem(%q) = %q, want 64-char hex", id, stem)
		}
	}
	if got := fileStem(testID("ab")); got != strings.Repeat("0", 62)+"ab" {
		t.Fatalf("well-formed address not mapped to its own hex: %q", got)
	}
	// Distinct malformed ids must not collide on one stem.
	if fileStem("x") == fileStem("y") {
		t.Fatal("malformed ids collide")
	}
	// And a registry accepts them without writing outside its dirs.
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir})
	mustPut(t, r, "../../etc/passwd", []byte("p"), "j-000001", 1)
	if got, ok := r.Get("../../etc/passwd"); !ok || string(got) != "p" {
		t.Fatalf("weird-id round trip = %q/%v", got, ok)
	}
}

// TestTmpCleanup: stale temp files from a crashed predecessor vanish on
// Open and never enter the index.
func TestTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, Config{Dir: dir})
	stale := filepath.Join(dir, "tmp", "w00000001")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Config{Dir: dir})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived reopen: %v", err)
	}
	if st := r.Stats(); st.Artifacts != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want empty clean registry", st)
	}
}

// TestHitWritesNothing: a dedupe hit changes the sidecar on disk only at
// Flush. Before it the sidecar's bytes and mtime are unchanged and tmp/
// holds no staging file; after it the sidecar carries the hits, and a second
// Flush with nothing dirty writes nothing.
func TestHitWritesNothing(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir})
	id := testID("f7")
	mustPut(t, r, id, []byte("payload"), "j-000001", 1)
	sidecar := filepath.Join(dir, "artifacts", strings.TrimPrefix(id, "sha256:")+metaSuffix)
	old := time.Unix(1_600_000_000, 0)
	if err := os.Chtimes(sidecar, old, old); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		data, err := os.ReadFile(sidecar)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(sidecar)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, before) || !fi.ModTime().Equal(old) {
			t.Fatalf("%s: sidecar rewritten (mtime %v, want %v)", when, fi.ModTime(), old)
		}
		if tmp, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(tmp) != 0 {
			t.Fatalf("%s: tmp/ = %v %v, want empty", when, tmp, err)
		}
	}

	for i := 1; i <= 3; i++ {
		a, ok := r.Hit(id)
		if !ok || a.Hits != i {
			t.Fatalf("hit %d = %+v/%v, want %d in-memory hits", i, a, ok, i)
		}
	}
	unchanged("after 3 hits")

	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := readMeta(sidecar)
	if err != nil || m.Hits != 3 {
		t.Fatalf("flushed sidecar = %+v/%v, want 3 hits", m, err)
	}
	before, err = os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(sidecar, old, old); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	unchanged("after a clean Flush")
}

// TestFlushFailureKeepsDirty: a sidecar that cannot be written is reported
// and stays dirty, so the next Flush that can write it does.
func TestFlushFailureKeepsDirty(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, Config{Dir: dir})
	id := testID("d9")
	mustPut(t, r, id, []byte("payload"), "j-000001", 1)
	r.Hit(id)
	tmp := filepath.Join(dir, "tmp")
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err == nil {
		t.Fatal("Flush without a staging directory succeeded")
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if a, ok := sidecar(t, dir, id); !ok || a.Hits != 1 {
		t.Fatalf("flushed sidecar = %+v/%v, want the retried hit", a, ok)
	}
}

// TestEvictDirtyWritesNothing: an artifact evicted between its hit and the
// next Flush is not written back, so no sidecar outlives its payload.
func TestEvictDirtyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	r := mustOpen(t, Config{Dir: dir, MaxAge: time.Hour, Now: func() time.Time { return now }})
	id := testID("e1")
	mustPut(t, r, id, []byte("payload"), "j-000001", 1)
	if _, ok := r.Hit(id); !ok {
		t.Fatal("hit missed")
	}
	now = now.Add(2 * time.Hour)
	r.EnforceRetention()
	if _, ok := sidecar(t, dir, id); ok {
		t.Fatal("idle artifact survived retention")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(filepath.Join(dir, "artifacts")); err != nil || len(left) != 0 {
		t.Fatalf("artifacts/ after evict and Flush = %v %v, want empty", left, err)
	}
}
