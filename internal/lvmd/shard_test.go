package lvmd

import (
	"testing"
	"time"
)

// TestSubmitStallsOnlyWhenFull: with room in the queue submit returns
// true at once; with the queue full it gives up after the stall, or at
// once when there is no stall to wait.
func TestSubmitStallsOnlyWhenFull(t *testing.T) {
	const stall = 50 * time.Millisecond
	s := &Shard{ops: make(chan shardOp, 1), done: make(chan struct{})}
	t0 := time.Now()
	if !s.submit(shardOp{}, stall) {
		t.Fatal("submit into an empty queue failed")
	}
	if d := time.Since(t0); d >= stall {
		t.Fatalf("submit with room took %v", d)
	}
	t0 = time.Now()
	if s.submit(shardOp{}, stall) {
		t.Fatal("submit into a full queue succeeded")
	}
	if d := time.Since(t0); d < stall {
		t.Fatalf("submit into a full queue gave up after %v, before the %v stall", d, stall)
	}
	t0 = time.Now()
	if s.submit(shardOp{}, 0) {
		t.Fatal("submit into a full queue succeeded")
	}
	if d := time.Since(t0); d >= stall {
		t.Fatalf("submit with no stall waited %v", d)
	}
}
