package tscfp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sweepGrid is the acceptance grid: 2 seeds × 2 modes × 2 resolutions = 8
// cells, at test scale.
func sweepGrid(t *testing.T) Grid {
	t.Helper()
	return Grid{
		Design: MustBenchmark("n100"),
		Seeds:  []int64{1, 2},
		Modes:  []Mode{PowerAware, TSCAware},
		GridNs: []int{8, 12},
		Options: []Option{
			WithIterations(60),
			WithActivitySamples(4),
			WithMaxDummyGroups(2),
		},
	}
}

// TestSweepCompletesGrid runs the 8-cell grid on 4 workers and checks every
// cell completes with a valid, JSON-serializable result.
func TestSweepCompletesGrid(t *testing.T) {
	grid := sweepGrid(t)
	cells := grid.Cells()
	if len(cells) != 8 {
		t.Fatalf("grid has %d cells, want 8", len(cells))
	}
	results, err := Sweep(context.Background(), grid, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("sweep returned %d results, want 8", len(results))
	}
	for i, sr := range results {
		if sr.Cell.Index != i {
			t.Fatalf("result %d carries cell index %d", i, sr.Cell.Index)
		}
		if sr.Err != nil {
			t.Fatalf("cell %d (seed %d, %s, grid %d) failed: %v",
				i, sr.Cell.Seed, sr.Cell.Mode, sr.Cell.GridN, sr.Err)
		}
		if sr.Result == nil {
			t.Fatalf("cell %d has neither result nor error", i)
		}
		if err := sr.Result.Validate(); err != nil {
			t.Fatalf("cell %d invalid: %v", i, err)
		}
		if sr.Result.GridN != sr.Cell.GridN {
			t.Fatalf("cell %d ran at grid %d, want %d", i, sr.Result.GridN, sr.Cell.GridN)
		}
		var buf bytes.Buffer
		if err := sr.Result.WriteJSON(&buf); err != nil {
			t.Fatalf("cell %d does not serialize: %v", i, err)
		}
		if _, err := ReadResult(&buf); err != nil {
			t.Fatalf("cell %d JSON does not decode: %v", i, err)
		}
	}
}

// TestSweepMatchesSequentialRuns checks worker scheduling cannot leak into
// results: each sweep cell equals the same flow run alone.
func TestSweepMatchesSequentialRuns(t *testing.T) {
	grid := Grid{
		Design:  MustBenchmark("n100"),
		Seeds:   []int64{3, 4},
		Modes:   []Mode{PowerAware},
		Options: []Option{WithGridN(8), WithIterations(40), WithActivitySamples(2)},
	}
	results, err := Sweep(context.Background(), grid, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range results {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		solo, err := Run(context.Background(), grid.Design,
			append(append([]Option(nil), grid.Options...), sr.Cell.Options()...)...)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sr.Result, solo
		a.Metrics.RuntimeSec, b.Metrics.RuntimeSec = 0, 0
		ja, _ := a.JSON()
		jb, _ := b.JSON()
		if !bytes.Equal(ja, jb) {
			t.Fatalf("cell %d differs between sweep and solo run", sr.Cell.Index)
		}
	}
}

// TestSweepCancellation cancels a large sweep early; every cell must drain
// out, completed or cancelled, and the channel must close.
func TestSweepCancellation(t *testing.T) {
	grid := Grid{
		Design:  MustBenchmark("n100"),
		Seeds:   []int64{1, 2, 3, 4, 5, 6},
		Modes:   []Mode{PowerAware},
		Options: []Option{WithGridN(8), WithIterations(400), WithActivitySamples(2)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := Stream(ctx, grid, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var seen, cancelled int
	for sr := range ch {
		if seen == 0 {
			cancel() // first result in hand: stop the rest
		}
		seen++
		if sr.Err != nil {
			if !errors.Is(sr.Err, context.Canceled) {
				t.Fatalf("cell %d: unexpected error %v", sr.Cell.Index, sr.Err)
			}
			cancelled++
		}
	}
	if seen != len(grid.Cells()) {
		t.Fatalf("drained %d results, want %d", seen, len(grid.Cells()))
	}
	if cancelled == 0 {
		t.Fatal("cancellation arrived after every cell finished; enlarge the grid")
	}
}

// TestStreamMixedCancellationExactCellCount is the accounting contract
// under cancellation: with one worker and a many-cell grid cancelled after
// the first result, the channel must yield exactly len(grid.Cells()) sends
// — every cell exactly once — mixing completed cells, the in-flight cell
// (which observes ctx between annealing moves), and the never-started tail
// the dispatcher drains out itself.
func TestStreamMixedCancellationExactCellCount(t *testing.T) {
	grid := Grid{
		Design:  MustBenchmark("n100"),
		Seeds:   []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Modes:   []Mode{PowerAware},
		Options: []Option{WithGridN(8), WithIterations(400), WithActivitySamples(2)},
	}
	cells := grid.Cells()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := Stream(ctx, grid, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int, len(cells))
	var completed, cancelled int
	for sr := range ch {
		if seen[sr.Cell.Index] > 0 {
			t.Fatalf("cell %d reported twice", sr.Cell.Index)
		}
		seen[sr.Cell.Index]++
		switch {
		case sr.Err == nil:
			completed++
			cancel() // first completion in hand: stop the rest
		case errors.Is(sr.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("cell %d: unexpected error %v", sr.Cell.Index, sr.Err)
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("observed %d distinct cells, want %d", len(seen), len(cells))
	}
	if completed == 0 || cancelled == 0 {
		t.Fatalf("wanted a mix of completed and cancelled cells, got %d/%d", completed, cancelled)
	}
}

// TestStreamPreCancelledContext: a context cancelled before Stream is even
// called must still account for every cell (all with ctx.Err), never hang,
// and never run a flow to completion.
func TestStreamPreCancelledContext(t *testing.T) {
	grid := sweepGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := Stream(ctx, grid, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	for sr := range ch {
		seen++
		if sr.Err == nil {
			t.Fatalf("cell %d completed under a pre-cancelled context", sr.Cell.Index)
		}
		if !errors.Is(sr.Err, context.Canceled) {
			t.Fatalf("cell %d: unexpected error %v", sr.Cell.Index, sr.Err)
		}
	}
	if seen != len(grid.Cells()) {
		t.Fatalf("drained %d results, want %d", seen, len(grid.Cells()))
	}
}

// TestStreamAbandonedConsumerNoGoroutineLeak: a consumer that walks away
// after one result (without draining the channel) must not strand the
// worker pool — the result channel is buffered to the cell count, so the
// workers finish their in-flight cells, the dispatcher drains the tail, and
// every goroutine exits.
func TestStreamAbandonedConsumerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	grid := Grid{
		Design:  MustBenchmark("n100"),
		Seeds:   []int64{1, 2, 3, 4, 5, 6},
		Modes:   []Mode{PowerAware},
		Options: []Option{WithGridN(8), WithIterations(60), WithActivitySamples(2)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := Stream(ctx, grid, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	<-ch     // one result in hand...
	cancel() // ...then the consumer gives up and abandons the channel.

	// The pool must wind down on its own despite the unread results. Poll
	// with a deadline: goroutine counts include runtime/test housekeeping,
	// so allow a small slack above the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finalizer/timer goroutines to settle
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d before, %d now\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepBadOptionFailsFast checks a malformed cell surfaces before any
// flow runs.
func TestSweepBadOptionFailsFast(t *testing.T) {
	grid := sweepGrid(t)
	grid.Modes = []Mode{"warp-aware"}
	if _, err := Stream(context.Background(), grid); err == nil {
		t.Fatal("bad mode accepted by Stream")
	}
	if _, err := Sweep(context.Background(), Grid{}); err == nil {
		t.Fatal("nil design accepted by Sweep")
	}
}

// TestStreamCellPanicFailsOnlyThatCell pins panic containment on the sweep
// workers: a panic inside one cell's flow — here its progress callback —
// becomes that cell's error, and the single worker goes on to serve the
// other cell. Without the recover the panic would end the process.
func TestStreamCellPanicFailsOnlyThatCell(t *testing.T) {
	var fired atomic.Bool
	grid := sweepGrid(t)
	grid.Modes, grid.GridNs = nil, nil
	grid.Options = append(grid.Options, WithGridN(8), WithProgress(func(Event) {
		if fired.CompareAndSwap(false, true) {
			panic("progress callback failed")
		}
	}))
	ch, err := Stream(context.Background(), grid, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]SweepResult{}
	for sr := range ch {
		got[sr.Cell.Index] = sr
	}
	if len(got) != 2 {
		t.Fatalf("stream yielded %d cells, want 2", len(got))
	}
	if sr := got[0]; sr.Result != nil || sr.Err == nil || !strings.Contains(sr.Err.Error(), "progress callback failed") {
		t.Fatalf("panicking cell: result %v, err %v; want only an error carrying the panic", sr.Result, sr.Err)
	}
	if sr := got[1]; sr.Err != nil || sr.Result == nil {
		t.Fatalf("other cell: result %v, err %v; want a result", sr.Result, sr.Err)
	}
}
