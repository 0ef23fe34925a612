// Package par provides the small data-parallel fan-out helper shared by the
// thermal solver, the fast estimator and the parallel annealer: a
// contiguous index range split across a bounded worker pool. Results are
// required to be independent of the partitioning (every callee writes
// disjoint output cells), which is what keeps the parallel solvers
// byte-identical to their serial runs.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// For splits [0, n) into at most `workers` contiguous chunks and runs fn on
// each chunk concurrently, blocking until all chunks complete. With one
// worker (or a tiny n) fn runs inline on the calling goroutine, so the
// serial path pays no synchronization cost. fn must only write state disjoint
// between chunks.
//
// A panic in fn is recovered on the chunk's goroutine and re-raised on the
// caller's goroutine once every chunk has returned (the lowest panicking
// chunk's value wins), so it reaches the caller's recover — a tscfpd
// worker's, say — instead of ending the process.
func For(workers, n int, fn func(lo, hi int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var fan struct {
		wg    sync.WaitGroup
		mu    sync.Mutex
		lo    int // the chunk whose panic value is held
		value any
	}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fan.wg.Add(1)
		go func(lo, hi int) {
			defer fan.wg.Done()
			defer func() {
				if v := recover(); v != nil {
					fan.mu.Lock()
					if fan.value == nil || lo < fan.lo {
						fan.lo, fan.value = lo, v
					}
					fan.mu.Unlock()
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	fan.wg.Wait()
	if fan.value != nil {
		panic(fan.value)
	}
}
