package server

import "repro/internal/registry"

// Store is the content-addressed artifact registry behind the daemon: every
// completed Result is an addressable artifact whose ID is the hash of its
// inputs, so identical submissions collapse onto one computation and every
// artifact traces back to the job that produced it.
//
// registry.Registry is the one implementation: disk-backed, durable across
// restarts, and memory- and disk-bounded. Store declares only the methods
// the server calls, so a test can substitute a fault-injecting fake. The
// store is rebuildable state — losing it costs recomputation, never
// correctness — which keeps the daemon safe to run as a stateless
// replicated Deployment.
type Store interface {
	// Put records data under id with lineage to the producing job. The
	// first writer wins: a concurrent duplicate run keeps the original
	// producer's lineage, and the bool reports whether the artifact already
	// existed. An error means the payload could not be stored.
	Put(id string, data []byte, jobID string, jobSeq uint64) (registry.Artifact, bool, error)
	// Hit returns the artifact for id and counts a dedupe hit.
	Hit(id string) (registry.Artifact, bool)
	// Get returns the payload for id.
	Get(id string) ([]byte, bool)
	// Stats snapshots the store's observability counters.
	Stats() registry.Stats
	// LastJobSeq reports the highest producing-job sequence on record, so a
	// restarted daemon allocates job IDs above every ID in stored lineage.
	LastJobSeq() uint64
}
