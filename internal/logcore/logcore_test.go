package logcore

import (
	"math/rand"
	"testing"

	"lvm/internal/bus"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"
)

var testModel = Model{Lead: 15, Bus: 8, Tail: 10, Ring: 32, DMAed: metrics.HWRecordsDMAed, Lost: metrics.HWRecordsLost}

func newCore(t *testing.T, m Model) (Core, *phys.Memory) {
	t.Helper()
	mem := phys.NewMemory(8)
	for i := 0; i < 4; i++ {
		if _, err := mem.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	return New(bus.New(), mem, m), mem
}

// TestRingMatchesQueue drives the ring and a plain slice queue with the
// same random pushes, pops, multi-record drops and discards: the pending
// writes, their order and the sequence number must agree at every step,
// across growth, wrap-around and the empty-ring rewind.
func TestRingMatchesQueue(t *testing.T) {
	c, _ := newCore(t, testModel)
	var q []machine.LoggedWrite
	var seq uint64
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			w := machine.LoggedWrite{Addr: uint32(step), Time: uint64(step)}
			c.Push(&w, 1<<20)
			q = append(q, w)
		case op < 7 && len(q) > 0:
			if w := c.Pop(); w != q[0] {
				t.Fatalf("step %d: Pop = %+v, want %+v", step, w, q[0])
			}
			q, seq = q[1:], seq+1
		case op < 9 && len(q) > 0:
			n := 1 + rng.Intn(len(q))
			c.drop(n)
			q, seq = q[n:], seq+uint64(n)
		case op == 9 && rng.Intn(20) == 0:
			if n := c.DiscardPending(); n != len(q) {
				t.Fatalf("step %d: DiscardPending = %d, want %d", step, n, len(q))
			}
			q, seq = q[:0], seq+uint64(len(q))
		}
		if c.Pending() != len(q) || c.Seq() != seq {
			t.Fatalf("step %d: Pending %d Seq %d, want %d %d", step, c.Pending(), c.Seq(), len(q), seq)
		}
		i := 0
		c.PendingWrites(func(w machine.LoggedWrite) {
			if w != q[i] || *c.At(i) != w {
				t.Fatalf("step %d: pending write %d = %+v, want %+v", step, i, w, q[i])
			}
			i++
		})
	}
	if c.RecordsLost != 0 {
		t.Fatalf("an unbounded ring lost %d writes", c.RecordsLost)
	}
}

// TestRingGrowsToHighWater: the ring doubles from Model.Ring only as far
// as the occupancy needs, never past the push limit, and a push at the
// limit goes on the ledger as lost instead of growing the ring.
func TestRingGrowsToHighWater(t *testing.T) {
	c, _ := newCore(t, testModel)
	for i := 0; i < 200; i++ {
		c.Push(&machine.LoggedWrite{Time: uint64(i)}, 819)
	}
	if len(c.ring) != 256 {
		t.Fatalf("200 pending writes grew the ring to %d entries, want 256", len(c.ring))
	}
	c.drop(200)
	c.Push(&machine.LoggedWrite{}, 819)
	if len(c.ring) != 256 || c.head != 0 {
		t.Fatalf("a drained ring resized or did not rewind: %d entries, head %d", len(c.ring), c.head)
	}

	c, _ = newCore(t, testModel)
	reg := metrics.New(1)
	c.SetMetrics(reg.Shard(0), nil)
	for i := 0; i < 120; i++ {
		c.Push(&machine.LoggedWrite{}, 100)
	}
	if lost := reg.Snapshot().Counters["hwlogger.records_lost"]; len(c.ring) != 100 || c.Pending() != 100 || c.RecordsLost != 20 || lost != 20 {
		t.Fatalf("ring %d, pending %d, lost %d (counter %d); want 100, 100, 20",
			len(c.ring), c.Pending(), c.RecordsLost, lost)
	}
}
