package server

import (
	"testing"
	"time"
)

func qjob(id string, seq uint64, prio int) *job {
	return &job{id: id, seq: seq, priority: prio}
}

// TestQueueOrdering pins the pop order: priority descending, FIFO within a
// priority level.
func TestQueueOrdering(t *testing.T) {
	q := newQueue(16)
	for _, j := range []*job{
		qjob("a", 1, 0), qjob("b", 2, 5), qjob("c", 3, 0),
		qjob("d", 4, 5), qjob("e", 5, 9),
	} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"e", "b", "d", "a", "c"}
	for _, id := range want {
		j, ok := q.pop()
		if !ok || j.id != id {
			t.Fatalf("pop = %v/%v, want %s", j, ok, id)
		}
	}
}

// TestQueueBound rejects pushes beyond capacity with errQueueFull.
func TestQueueBound(t *testing.T) {
	q := newQueue(2)
	if err := q.push(qjob("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("b", 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("c", 3, 0)); err != errQueueFull {
		t.Fatalf("over-capacity push = %v, want errQueueFull", err)
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
}

// TestQueueRemove takes a queued job out by ID; removing twice (or a
// missing ID) returns nil.
func TestQueueRemove(t *testing.T) {
	q := newQueue(4)
	q.push(qjob("a", 1, 0))
	q.push(qjob("b", 2, 7))
	q.push(qjob("c", 3, 0))
	if j := q.remove("a"); j == nil || j.id != "a" {
		t.Fatalf("remove(a) = %v", j)
	}
	if j := q.remove("a"); j != nil {
		t.Fatalf("second remove(a) = %v, want nil", j)
	}
	j, ok := q.pop()
	if !ok || j.id != "b" {
		t.Fatalf("pop after remove = %v/%v, want b", j, ok)
	}
}

// TestQueueCloseDrains: close rejects new pushes but pop still drains the
// backlog, then reports shutdown.
func TestQueueCloseDrains(t *testing.T) {
	q := newQueue(4)
	q.push(qjob("a", 1, 0))
	q.close()
	if err := q.push(qjob("b", 2, 0)); err != errQueueClosed {
		t.Fatalf("push after close = %v, want errQueueClosed", err)
	}
	if j, ok := q.pop(); !ok || j.id != "a" {
		t.Fatalf("pop after close = %v/%v, want a", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on drained closed queue reported a job")
	}
}

// TestQueueCloseWakesBlockedPop: a pop blocked on an empty queue returns
// promptly once the queue closes.
func TestQueueCloseWakesBlockedPop(t *testing.T) {
	q := newQueue(4)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("blocked pop returned a job from an empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the blocked pop")
	}
}
