package tlblog

import (
	"testing"

	"lvm/internal/bus"
	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/phys"
)

func newRig(t *testing.T) (*Logger, *phys.Memory) {
	t.Helper()
	mem := phys.NewMemory(32)
	for i := 0; i < 16; i++ {
		if _, err := mem.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	return New(bus.New(), mem), mem
}

func TestRecordsVirtualAddresses(t *testing.T) {
	l, mem := newRig(t)
	l.MapPage(0x10000>>phys.PageShift, 0)
	l.SetDescriptor(0, 0x2000, 0x3000)
	l.Snoop(machine.LoggedWrite{Addr: 0x5af0, VAddr: 0x10044, Value: 9, Size: 4, Time: 6})
	l.DrainAll()
	rec := logrec.Decode(mem.Frame(2)[:])
	if rec.Addr != 0x10044 {
		t.Fatalf("record address = %#x, want the virtual address 0x10044", rec.Addr)
	}
	if rec.Value != 9 {
		t.Fatalf("record = %+v", rec)
	}
	if d := l.Descriptor(0); d.Addr != 0x2000+logrec.Size {
		t.Fatalf("descriptor not advanced: %+v", d)
	}
}

func TestUnmappedPageDropsRecord(t *testing.T) {
	l, _ := newRig(t)
	l.Snoop(machine.LoggedWrite{VAddr: 0x99000, Value: 1, Size: 4, Time: 1})
	l.DrainAll()
	if l.RecordsLost != 1 || l.RecordsWritten != 0 {
		t.Fatalf("lost=%d written=%d", l.RecordsLost, l.RecordsWritten)
	}
}

func TestOnFullExtends(t *testing.T) {
	l, _ := newRig(t)
	l.MapPage(0, 0)
	l.SetDescriptor(0, 0x2000, 0x2000+2*logrec.Size) // room for 2 records
	calls := 0
	l.OnFull = func(lg *Logger, idx uint16) bool {
		calls++
		lg.SetDescriptor(idx, 0x3000, 0x4000)
		return true
	}
	for i := uint32(0); i < 5; i++ {
		l.Snoop(machine.LoggedWrite{VAddr: i * 4, Value: i, Size: 4, Time: uint64(i)})
	}
	l.DrainAll()
	if calls != 1 {
		t.Fatalf("OnFull calls = %d", calls)
	}
	if l.RecordsWritten != 5 || l.RecordsLost != 0 {
		t.Fatalf("written=%d lost=%d", l.RecordsWritten, l.RecordsLost)
	}
}

func TestStallInsteadOfOverload(t *testing.T) {
	l, _ := newRig(t)
	l.MapPage(0, 0)
	l.SetDescriptor(0, 0x2000, 0xC000)
	var maxStall uint64
	// Back-to-back logged writes, far more than the write buffer holds:
	// the CPU must stall, but by the *drain rate of one record*, never by
	// an overload-interrupt-sized penalty.
	for i := uint32(0); i < 100; i++ {
		s, _ := l.Snoop(machine.LoggedWrite{VAddr: i * 4, Value: i, Size: 4, Time: uint64(i * 2)})
		if s-uint64(i*2) > maxStall {
			maxStall = s - uint64(i*2)
		}
	}
	if l.StallEvents == 0 {
		t.Fatalf("no stalls despite tiny write buffer")
	}
	if maxStall > 100*cycles.BlockWriteTotal {
		t.Fatalf("stall too large for on-chip model: %d", maxStall)
	}
	l.DrainAll()
	if l.RecordsWritten != 100 {
		t.Fatalf("written = %d", l.RecordsWritten)
	}
}

func TestServiceCostIsOneBlockWrite(t *testing.T) {
	l, _ := newRig(t)
	l.MapPage(0, 0)
	l.SetDescriptor(0, 0x2000, 0x3000)
	l.Snoop(machine.LoggedWrite{VAddr: 0, Value: 1, Size: 4, Time: 50})
	done := l.DrainAll()
	if done != 50+cycles.BlockWriteTotal {
		t.Fatalf("service done at %d, want %d", done, 50+cycles.BlockWriteTotal)
	}
}

func TestPerRegionLogsViaVirtualPages(t *testing.T) {
	// Two virtual pages of the same physical segment can go to different
	// logs — impossible in the prototype (Section 3.1.2), natural here.
	l, mem := newRig(t)
	l.MapPage(0x10, 0)
	l.MapPage(0x11, 1)
	l.SetDescriptor(0, 0x2000, 0x3000)
	l.SetDescriptor(1, 0x4000, 0x5000)
	l.Snoop(machine.LoggedWrite{VAddr: 0x10004, Value: 1, Size: 4, Time: 1})
	l.Snoop(machine.LoggedWrite{VAddr: 0x11008, Value: 2, Size: 4, Time: 2})
	l.DrainAll()
	if r := logrec.Decode(mem.Frame(2)[:]); r.Value != 1 {
		t.Fatalf("log 0 record = %+v", r)
	}
	if r := logrec.Decode(mem.Frame(4)[:]); r.Value != 2 {
		t.Fatalf("log 1 record = %+v", r)
	}
}

// TestDMAHookDropAndCorrupt mirrors the hwlogger fault-injection contract
// on the on-chip unit: a drop is tallied as a lost record and does not
// advance the descriptor; an in-place mutation lands in memory.
func TestDMAHookDropAndCorrupt(t *testing.T) {
	l, mem := newRig(t)
	l.MapPage(0, 0)
	l.SetDescriptor(0, 0x2000, 0x3000)
	l.DMAHook = func(rec *logrec.Record, dst phys.Addr) bool {
		if rec.Value == 2 {
			return true // drop
		}
		if rec.Value == 3 {
			rec.Value = 0x30003
		}
		return false
	}
	for i := uint32(1); i <= 3; i++ {
		l.Snoop(machine.LoggedWrite{VAddr: 4 * i, Value: i, Size: 4, Time: uint64(i * 10)})
	}
	l.DrainAll()
	if l.RecordsWritten != 2 || l.RecordsLost != 1 {
		t.Fatalf("written=%d lost=%d, want 2/1", l.RecordsWritten, l.RecordsLost)
	}
	r0, r1 := logrec.Decode(mem.Frame(2)[:]), logrec.Decode(mem.Frame(2)[logrec.Size:])
	if r0.Value != 1 || r1.Value != 0x30003 {
		t.Fatalf("records = %v %v, want value 1 then corrupted 0x30003 (dense)", r0, r1)
	}
	if d := l.Descriptor(0); d.Addr != 0x2000+2*logrec.Size {
		t.Fatalf("descriptor = %#x, dropped record must not advance it", d.Addr)
	}
}
