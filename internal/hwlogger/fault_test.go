package hwlogger

import (
	"testing"

	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/phys"
)

// TestDMAHookDropKeepsLogDense: a dropped DMA must not advance the log
// head, so the surviving records stay contiguous (the fault injector
// depends on this to compute ground-truth damage offsets).
func TestDMAHookDropKeepsLogDense(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)

	var seen int
	l.DMAHook = func(rec *logrec.Record, dst phys.Addr) bool {
		seen++
		return rec.Value == 2 // lose the middle write
	}
	for i := uint32(1); i <= 3; i++ {
		l.Snoop(machine.LoggedWrite{Addr: 0x1000 + 4*i, Value: i, Size: 4, Time: uint64(i * 10)})
	}
	l.DrainAll()

	if seen != 3 {
		t.Fatalf("hook saw %d records, want 3", seen)
	}
	if l.RecordsLost != 1 || l.RecordsWritten != 2 {
		t.Fatalf("lost=%d written=%d, want 1/2", l.RecordsLost, l.RecordsWritten)
	}
	r0, r1 := logrec.Decode(mem.Frame(2)[:]), logrec.Decode(mem.Frame(2)[logrec.Size:])
	if r0.Value != 1 || r1.Value != 3 {
		t.Fatalf("surviving records = %v %v, want values 1 then 3 (dense)", r0, r1)
	}
	if h := l.LogHead(0); h.Addr != 0x2000+2*logrec.Size {
		t.Fatalf("log head = %#x, want to advance by exactly 2 records", h.Addr)
	}
}

// TestDMAHookMutatesRecord: in-place corruption through the hook must land
// in memory, and the scratch-record plumbing must not leak the mutation
// into later records.
func TestDMAHookMutatesRecord(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)

	first := true
	l.DMAHook = func(rec *logrec.Record, dst phys.Addr) bool {
		if first {
			rec.Value ^= 0xdeadbeef
			first = false
		}
		return false
	}
	l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: 7, Size: 4, Time: 10})
	l.Snoop(machine.LoggedWrite{Addr: 0x1004, Value: 8, Size: 4, Time: 20})
	l.DrainAll()

	r0, r1 := logrec.Decode(mem.Frame(2)[:]), logrec.Decode(mem.Frame(2)[logrec.Size:])
	if r0.Value != 7^0xdeadbeef {
		t.Fatalf("corrupted record value = %#x, want %#x", r0.Value, uint32(7)^0xdeadbeef)
	}
	if r1.Value != 8 {
		t.Fatalf("second record value = %#x, corruption leaked", r1.Value)
	}
}

// TestPendingWritesAndDiscard models the crash capture: the injector reads
// the volatile FIFO contents, then discards them without DMA.
func TestPendingWritesAndDiscard(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)

	for i := uint32(0); i < 4; i++ {
		l.Snoop(machine.LoggedWrite{Addr: 0x1000 + 4*i, Value: 100 + i, Size: 4, Time: uint64(i)})
	}
	var vals []uint32
	l.PendingWrites(func(w machine.LoggedWrite) { vals = append(vals, w.Value) })
	if len(vals) != 4 {
		t.Fatalf("PendingWrites visited %d entries, want 4", len(vals))
	}
	for i, v := range vals {
		if v != 100+uint32(i) {
			t.Fatalf("pending[%d] = %d, not oldest-first", i, v)
		}
	}
	// Visiting must not consume.
	if l.Pending() != 4 {
		t.Fatalf("Pending = %d after visit, want 4", l.Pending())
	}
	if n := l.DiscardPending(); n != 4 {
		t.Fatalf("DiscardPending = %d, want 4", n)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after discard", l.Pending())
	}
	// Nothing reached memory.
	if rec := logrec.Decode(mem.Frame(2)[:]); rec.Value != 0 {
		t.Fatalf("discarded record reached memory: %+v", rec)
	}
	if l.RecordsWritten != 0 {
		t.Fatalf("RecordsWritten = %d after discard", l.RecordsWritten)
	}
}
