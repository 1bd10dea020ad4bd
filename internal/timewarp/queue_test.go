package timewarp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInputQueueMatchesSortedReference drives the heap with a random mix of
// push, pop and remove (present and absent IDs) and checks every result
// against a slice kept sorted by before.
func TestInputQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q inputQueue
	var ref []Event
	cmp := func(a, b Event) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	}
	seq := uint32(0)
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			// Small ranges force ties on Time, Obj and Data.
			e := Event{
				Time: VT(rng.Intn(16)),
				ID:   EventID{Sched: uint32(rng.Intn(3)), Seq: seq},
				Obj:  uint32(rng.Intn(4)),
				Data: uint32(rng.Intn(4)),
			}
			seq++
			q.push(e)
			i, _ := slices.BinarySearchFunc(ref, e, cmp)
			ref = slices.Insert(ref, i, e)
		case r < 8:
			got, ok := q.pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("op %d: pop ok = %v with %d queued", op, ok, len(ref))
			}
			if ok {
				if got != ref[0] {
					t.Fatalf("op %d: pop = %+v, want %+v", op, got, ref[0])
				}
				ref = ref[1:]
			}
		default:
			id := EventID{Sched: uint32(rng.Intn(3)), Seq: uint32(rng.Intn(int(seq) + 1))}
			i := slices.IndexFunc(ref, func(e Event) bool { return e.ID == id })
			if got := q.remove(id); got != (i >= 0) {
				t.Fatalf("op %d: remove(%v) = %v, want %v", op, id, got, i >= 0)
			}
			if i >= 0 {
				ref = slices.Delete(ref, i, i+1)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", op, q.len(), len(ref))
		}
		if e, ok := q.peek(); ok && e != ref[0] {
			t.Fatalf("op %d: peek = %+v, want %+v", op, e, ref[0])
		}
	}
}

// TestMeasureForwardAllocs bounds the host allocations per simulated event
// of the forward-cost measurement behind Figures 7 and 8, for both savers:
// the marginal allocations of 256 more events, so machine setup cancels.
// Sends and saves come from per-scheduler arenas and the input queue boxes
// nothing, so what remains is amortized slice growth.
func TestMeasureForwardAllocs(t *testing.T) {
	const short, long = 256, 512
	const maxPerEvent = 0.25
	for _, saver := range []SaverKind{SaverCopy, SaverLVM} {
		run := func(events int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := MeasureForward(saver, 256, 128, 8, events); err != nil {
					t.Fatal(err)
				}
			})
		}
		perEvent := (run(long) - run(short)) / (long - short)
		t.Logf("%s: %.3f allocs per event", saver, perEvent)
		if perEvent > maxPerEvent {
			t.Fatalf("%s: %.3f allocs per event, want <= %v", saver, perEvent, maxPerEvent)
		}
	}
}
