package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("0 must select GOMAXPROCS")
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("negative must select GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Fatal("positive must pass through")
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunksAreContiguousAndOrderedWithinChunk(t *testing.T) {
	// Each chunk writes its own lo into its cells; cells must be grouped.
	const n = 97
	owner := make([]int32, n)
	For(4, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&owner[i], int32(lo))
		}
	})
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("chunk starts must be non-decreasing: owner[%d]=%d owner[%d]=%d",
				i-1, owner[i-1], i, owner[i])
		}
	}
}

// TestForPanicReachesCaller pins panic containment: a chunk that panics on
// a spawned goroutine must panic on the caller's goroutine once every chunk
// has returned, with the lowest panicking chunk's value. Without the
// recover on the spawned goroutine the panic would end the test binary.
func TestForPanicReachesCaller(t *testing.T) {
	var finished atomic.Int32
	func() {
		defer func() {
			if v := recover(); v != "chunk 25" {
				t.Fatalf("recovered %v, want chunk 25's panic", v)
			}
		}()
		For(4, 100, func(lo, hi int) {
			if lo >= 25 && lo < 75 {
				panic(fmt.Sprintf("chunk %d", lo))
			}
			finished.Add(1)
		})
	}()
	if n := finished.Load(); n != 2 {
		t.Fatalf("%d non-panicking chunks finished before the re-panic, want 2", n)
	}
}
