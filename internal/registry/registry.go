// Package registry implements the disk-backed, content-addressed artifact
// registry behind tscfpd's result store. It generalizes the bench_results/
// on-disk convention into one durable home: every artifact is a payload file
// named by the hex of its content address plus a meta.json sidecar carrying
// lineage (producing job, created time, hit count, payload size, payload
// checksum).
//
// Durability contract: both files are written atomically (temp file in the
// same filesystem + rename), so a crash leaves either the complete pair or
// garbage in tmp/ — never a half-written artifact under its final name.
// Opening the registry rescans the data directory and rebuilds the in-memory
// index from the sidecars, verifying each payload's size and SHA-256 against
// its meta; files that fail (truncated payloads, hash mismatches, orphans,
// unreadable sidecars) are quarantined — moved aside into quarantine/ and
// counted, never fatal — so one rotten artifact cannot take the daemon down.
//
// Access contract: a dedupe hit (Hit) bumps the artifact's hit count and
// last-access time in memory only and marks its sidecar dirty; Flush writes
// the dirty sidecars, atomically like every other write (tscfpd flushes each
// minute and at drain). The read path thus does no disk I/O, and a crash
// loses at most the access metadata since the last Flush, which only orders
// eviction.
//
// Memory contract: the index holds metadata only (O(artifact count), small);
// payload bytes live on disk and pass through a size-bounded LRU cache, so
// in-RAM payload bytes never exceed MaxCacheBytes. On-disk growth is bounded
// by the retention policy: MaxStoreBytes evicts least-recently-accessed
// artifacts when total payload bytes exceed the bound, and MaxAge evicts
// artifacts idle longer than the age. Losing an evicted artifact costs
// recomputation, never correctness — the registry stays rebuildable state in
// the stateless-serving sense, it just stops being *irreplaceable* state.
package registry

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// metaSuffix names the sidecar next to each payload file: <hex> holds the
// bytes, <hex>.meta.json holds the lineage and checksum.
const metaSuffix = ".meta.json"

// Artifact is the metadata view of one stored artifact.
type Artifact struct {
	// ID is the content address ("sha256:<hex>" of the submission that
	// produced the payload — inputs, not output bytes).
	ID string `json:"id"`
	// JobID and JobSeq name the job that produced the artifact; JobSeq lets
	// a restarted daemon allocate job IDs above every ID already on disk.
	JobID   string    `json:"job_id"`
	JobSeq  uint64    `json:"job_seq,omitempty"`
	Created time.Time `json:"created"`
	Bytes   int       `json:"bytes"`
	// Hits counts submissions served from this artifact without running
	// (dedupe), not including the producing run itself.
	Hits int `json:"hits"`
}

// meta is the on-disk sidecar schema: the Artifact plus the payload's own
// checksum (the address hashes the *inputs*, so integrity needs a second
// hash over the output bytes) and the last access time the retention policy
// evicts by.
type meta struct {
	Artifact
	PayloadSHA256 string    `json:"payload_sha256"`
	LastAccess    time.Time `json:"last_access"`
}

// Stats is the registry's observability surface (exported at /metrics).
type Stats struct {
	Artifacts   int   // indexed artifacts
	DiskBytes   int64 // payload bytes on disk (sidecars excluded)
	CacheBytes  int64 // payload bytes held in the LRU cache
	CacheHits   int64 // Gets served from RAM
	CacheMisses int64 // Gets that had to read disk
	Evictions   int64 // artifacts removed by the retention policy
	Quarantined int64 // artifacts moved aside as corrupt/orphaned
	Rescanned   int64 // artifacts rebuilt into the index at Open
}

// Config tunes a Registry. Dir is required; zero bounds mean unbounded
// except MaxCacheBytes, where 0 selects 64 MiB (use a negative value to
// disable payload caching entirely).
type Config struct {
	Dir           string
	MaxStoreBytes int64         // on-disk payload bound; 0 = unbounded
	MaxCacheBytes int64         // in-RAM payload cache bound; 0 = 64 MiB, <0 = no cache
	MaxAge        time.Duration // evict artifacts idle longer than this; 0 = keep
	// Now is the clock, for retention tests. nil = time.Now.
	Now func() time.Time
}

// entry is one indexed artifact: metadata always, payload bytes only while
// cached (elem marks its LRU position; both are nil when evicted to disk).
// dirty marks a hit count or access time newer than the sidecar on disk.
type entry struct {
	meta  meta
	stem  string // payload filename under artifacts/
	data  []byte
	elem  *list.Element
	dirty bool
}

// Registry is the disk-backed store. All methods are safe for concurrent
// use; a single mutex guards the index, the cache, and file I/O (artifact
// payloads are small relative to the flows that produce them, so serialized
// I/O is not the bottleneck).
type Registry struct {
	cfg           Config
	artifactDir   string
	quarantineDir string
	tmpDir        string

	mu         sync.Mutex
	arts       map[string]*entry
	lru        *list.List // of *entry; front = most recently used
	cacheBytes int64
	diskBytes  int64
	lastJobSeq uint64
	tmpSeq     int

	cacheHits, cacheMisses int64
	evictions              int64
	quarantined, rescanned int64
}

// Open creates or reopens the registry rooted at cfg.Dir, rebuilding the
// index from the sidecars on disk. Corrupt or orphaned files are quarantined
// and counted, never an error; only an unusable directory fails Open.
func Open(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, errors.New("registry: Config.Dir is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxCacheBytes == 0 {
		cfg.MaxCacheBytes = 64 << 20
	}
	r := &Registry{
		cfg:           cfg,
		artifactDir:   filepath.Join(cfg.Dir, "artifacts"),
		quarantineDir: filepath.Join(cfg.Dir, "quarantine"),
		tmpDir:        filepath.Join(cfg.Dir, "tmp"),
		arts:          make(map[string]*entry),
		lru:           list.New(),
	}
	for _, d := range []string{r.artifactDir, r.quarantineDir, r.tmpDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
	}
	// Leftover temp files are garbage by construction (rename is the commit
	// point), so a crashed predecessor's half-writes vanish here.
	if ents, err := os.ReadDir(r.tmpDir); err == nil {
		for _, e := range ents {
			os.Remove(filepath.Join(r.tmpDir, e.Name()))
		}
	}
	if err := r.rescan(); err != nil {
		return nil, err
	}
	r.enforceLocked(cfg.Now())
	return r, nil
}

// rescan rebuilds the index from the data directory: every sidecar whose
// payload exists, has the recorded size, and hashes to the recorded checksum
// is indexed; everything else is quarantined. Runs before the Registry is
// shared, so it needs no locking.
func (r *Registry) rescan() error {
	ents, err := os.ReadDir(r.artifactDir)
	if err != nil {
		return fmt.Errorf("registry: rescan: %w", err)
	}
	claimed := make(map[string]bool) // payload stems owned by some sidecar
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, metaSuffix) {
			continue
		}
		stem := strings.TrimSuffix(name, metaSuffix)
		claimed[stem] = true
		m, err := readMeta(filepath.Join(r.artifactDir, name))
		if err != nil {
			r.quarantineStem(stem)
			continue
		}
		data, err := os.ReadFile(filepath.Join(r.artifactDir, stem))
		if err != nil || len(data) != m.Bytes || payloadSum(data) != m.PayloadSHA256 {
			r.quarantineStem(stem)
			continue
		}
		e := &entry{meta: m, stem: stem}
		r.arts[m.ID] = e
		r.diskBytes += int64(m.Bytes)
		if m.JobSeq > r.lastJobSeq {
			r.lastJobSeq = m.JobSeq
		}
		r.rescanned++
	}
	// A payload without a sidecar cannot prove its address or lineage:
	// quarantine it rather than guess.
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, metaSuffix) || claimed[name] {
			continue
		}
		r.quarantineStem(name)
	}
	return nil
}

// Put stores data under id with lineage to the producing job. The first
// writer wins: if the artifact already exists the original lineage is kept
// and existed reports true. A non-nil error means the payload could not be
// made durable (nothing is left indexed or half-written under the final
// names).
func (r *Registry) Put(id string, data []byte, jobID string, jobSeq uint64) (Artifact, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Now()
	if e, ok := r.arts[id]; ok {
		e.meta.LastAccess = now
		return e.meta.Artifact, true, nil
	}
	stem := fileStem(id)
	m := meta{
		Artifact: Artifact{
			ID:      id,
			JobID:   jobID,
			JobSeq:  jobSeq,
			Created: now,
			Bytes:   len(data),
		},
		PayloadSHA256: payloadSum(data),
		LastAccess:    now,
	}
	payloadPath := filepath.Join(r.artifactDir, stem)
	if err := r.writeAtomic(payloadPath, data); err != nil {
		return Artifact{}, false, err
	}
	if err := r.flushMetaLocked(stem, m); err != nil {
		os.Remove(payloadPath) // no orphan payload for the next rescan to quarantine
		return Artifact{}, false, err
	}
	e := &entry{meta: m, stem: stem}
	r.arts[id] = e
	r.diskBytes += int64(len(data))
	if jobSeq > r.lastJobSeq {
		r.lastJobSeq = jobSeq
	}
	r.cacheInsertLocked(e, data)
	r.enforceLocked(now)
	return e.meta.Artifact, false, nil
}

// Hit returns the artifact for id and counts a dedupe hit. The bumped hit
// count and access time stay in memory, marking the sidecar dirty, until
// Flush writes them: hit counts and access times are advisory (they order
// eviction; the payload's durability does not depend on them), so a hit
// does no disk I/O.
func (r *Registry) Hit(id string) (Artifact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.arts[id]
	if !ok {
		return Artifact{}, false
	}
	e.meta.Hits++
	e.meta.LastAccess = r.cfg.Now()
	e.dirty = true
	return e.meta.Artifact, true
}

// Flush writes the sidecar of every artifact Hit has dirtied, atomically as
// Put writes one, so hit counts and access times survive a restart. A
// sidecar that fails to write stays dirty for the next Flush; the first
// failure is returned. An artifact evicted while dirty is not written back.
func (r *Registry) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, e := range r.arts {
		if !e.dirty {
			continue
		}
		if err := r.flushMetaLocked(e.stem, e.meta); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		e.dirty = false
	}
	return first
}

// Lookup returns the artifact for id without counting a hit.
func (r *Registry) Lookup(id string) (Artifact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.arts[id]
	if !ok {
		return Artifact{}, false
	}
	return e.meta.Artifact, true
}

// Get returns the payload for id, from the cache when hot, from disk
// otherwise. A payload that fails its checksum on read (the file rotted or
// was truncated underneath a running daemon) is quarantined and reported as
// a miss rather than served.
func (r *Registry) Get(id string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.arts[id]
	if !ok {
		return nil, false
	}
	now := r.cfg.Now()
	if e.data != nil {
		r.cacheHits++
		r.lru.MoveToFront(e.elem)
		e.meta.LastAccess = now
		return e.data, true
	}
	r.cacheMisses++
	data, err := os.ReadFile(filepath.Join(r.artifactDir, e.stem))
	if err != nil || len(data) != e.meta.Bytes || payloadSum(data) != e.meta.PayloadSHA256 {
		r.dropLocked(e)
		r.quarantineStem(e.stem)
		return nil, false
	}
	e.meta.LastAccess = now
	r.cacheInsertLocked(e, data)
	return data, true
}

// LastJobSeq reports the highest producing-job sequence number on record,
// so a restarted daemon can allocate job IDs above every ID whose lineage
// is already on disk.
func (r *Registry) LastJobSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastJobSeq
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Artifacts:   len(r.arts),
		DiskBytes:   r.diskBytes,
		CacheBytes:  r.cacheBytes,
		CacheHits:   r.cacheHits,
		CacheMisses: r.cacheMisses,
		Evictions:   r.evictions,
		Quarantined: r.quarantined,
		Rescanned:   r.rescanned,
	}
}

// EnforceRetention applies the age and byte bounds now (Put applies them on
// every write; this is for a periodic sweep so an idle daemon still ages
// artifacts out).
func (r *Registry) EnforceRetention() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enforceLocked(r.cfg.Now())
}

// ---- internals (all *Locked methods require r.mu) ----

// enforceLocked evicts artifacts past the age bound, then least-recently-
// accessed artifacts until payload bytes fit MaxStoreBytes. The most
// recently accessed artifact is never evicted by the byte bound, so a bound
// smaller than one payload degrades to "keep exactly the hot one" instead
// of thrashing everything.
func (r *Registry) enforceLocked(now time.Time) {
	if r.cfg.MaxAge > 0 {
		cut := now.Add(-r.cfg.MaxAge)
		for _, e := range r.arts {
			if e.meta.LastAccess.Before(cut) {
				r.evictLocked(e)
			}
		}
	}
	if r.cfg.MaxStoreBytes <= 0 {
		return
	}
	for r.diskBytes > r.cfg.MaxStoreBytes && len(r.arts) > 1 {
		var coldest *entry
		for _, e := range r.arts {
			if coldest == nil || e.meta.LastAccess.Before(coldest.meta.LastAccess) {
				coldest = e
			}
		}
		r.evictLocked(coldest)
	}
}

// evictLocked removes an artifact from disk and the index under the
// retention policy.
func (r *Registry) evictLocked(e *entry) {
	os.Remove(filepath.Join(r.artifactDir, e.stem))
	os.Remove(filepath.Join(r.artifactDir, e.stem+metaSuffix))
	r.dropLocked(e)
	r.evictions++
}

// dropLocked removes an entry from the index and cache without touching its
// files.
func (r *Registry) dropLocked(e *entry) {
	delete(r.arts, e.meta.ID)
	r.diskBytes -= int64(e.meta.Bytes)
	r.cacheRemoveLocked(e)
}

// cacheInsertLocked puts a payload into the LRU cache, evicting cold cache
// entries (their disk copies stay) to respect MaxCacheBytes. Payloads larger
// than the whole bound are not cached at all.
func (r *Registry) cacheInsertLocked(e *entry, data []byte) {
	if r.cfg.MaxCacheBytes < 0 || int64(len(data)) > r.cfg.MaxCacheBytes {
		return
	}
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
		return
	}
	e.data = data
	e.elem = r.lru.PushFront(e)
	r.cacheBytes += int64(len(data))
	for r.cacheBytes > r.cfg.MaxCacheBytes {
		back := r.lru.Back()
		if back == nil {
			break
		}
		r.cacheRemoveLocked(back.Value.(*entry))
	}
}

// cacheRemoveLocked drops an entry's cached payload (the disk copy remains).
func (r *Registry) cacheRemoveLocked(e *entry) {
	if e.elem == nil {
		return
	}
	r.lru.Remove(e.elem)
	r.cacheBytes -= int64(len(e.data))
	e.data, e.elem = nil, nil
}

// quarantineStem moves an artifact's files aside instead of deleting or
// serving them, and counts one quarantined artifact. Move failures are
// ignored — quarantine is best-effort isolation, not a transaction.
func (r *Registry) quarantineStem(stem string) {
	for _, name := range []string{stem, stem + metaSuffix} {
		src := filepath.Join(r.artifactDir, name)
		if _, err := os.Stat(src); err != nil {
			continue
		}
		dst := filepath.Join(r.quarantineDir, name)
		os.Remove(dst)
		os.Rename(src, dst)
	}
	r.quarantined++
}

// writeAtomic writes data to path via a temp file in tmp/ (same filesystem)
// and rename, so path only ever holds a complete write.
func (r *Registry) writeAtomic(path string, data []byte) error {
	r.tmpSeq++
	tmp := filepath.Join(r.tmpDir, fmt.Sprintf("w%08d", r.tmpSeq))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// flushMetaLocked persists an artifact's sidecar atomically.
func (r *Registry) flushMetaLocked(stem string, m meta) error {
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return r.writeAtomic(filepath.Join(r.artifactDir, stem+metaSuffix), data)
}

func readMeta(path string) (meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return meta{}, err
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return meta{}, err
	}
	if m.ID == "" || m.PayloadSHA256 == "" || m.Bytes < 0 {
		return meta{}, errors.New("registry: incomplete sidecar")
	}
	return m, nil
}

// fileStem maps a content address to its payload filename: the hex of a
// well-formed "sha256:<hex>" address, or the SHA-256 of the whole id for
// anything else (never raw user input in a path).
func fileStem(id string) string {
	if h, ok := strings.CutPrefix(id, "sha256:"); ok && isHex(h) {
		return h
	}
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:])
}

func isHex(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// payloadSum is the integrity checksum over payload bytes (distinct from the
// artifact's address, which hashes the submission inputs).
func payloadSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
