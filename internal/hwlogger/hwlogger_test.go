package hwlogger

import (
	"testing"

	"lvm/internal/bus"
	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/phys"
)

// newRig builds a logger over a private bus and memory with the frames for
// physical pages [1..n] pre-allocated so tests can address them directly.
func newRig(t *testing.T, frames int) (*Logger, *phys.Memory, *bus.Bus) {
	t.Helper()
	mem := phys.NewMemory(frames + 1)
	for i := 0; i < frames; i++ {
		if _, err := mem.Alloc(); err != nil {
			t.Fatalf("alloc frame: %v", err)
		}
	}
	b := bus.New()
	return New(b, mem), mem, b
}

// TestWorkedExample reproduces the example of Section 3.1.1 / Figure 6:
// physical pages 0x1xxx and 0x2xxx are logged in log 1; log-table entry 1
// points at 0x7d20; the CPU writes 0x4321 to 0x1250; the logger emits the
// record "00001250 00004321 0004 <timestamp>" at 0x7d20 and advances the
// entry to 0x7d30.
func TestWorkedExample(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 1) // page 0x1xxx -> log 1
	l.LoadPMT(2, 1) // page 0x2xxx -> log 1
	l.SetLogHead(1, 0x7d20, ModeRecord)

	l.Snoop(machine.LoggedWrite{Addr: 0x1250, Value: 0x4321, Size: 4, CPU: 0, Time: 40})
	l.DrainAll()

	rec := logrec.Decode(mem.Frame(7)[0xd20:])
	if rec.Addr != 0x1250 || rec.Value != 0x4321 || rec.WriteSize != 4 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Timestamp != cycles.ToTimestamp(40) {
		t.Fatalf("timestamp = %d, want %d", rec.Timestamp, cycles.ToTimestamp(40))
	}
	if h := l.LogHead(1); !h.Valid || h.Addr != 0x7d30 {
		t.Fatalf("log head = %+v, want valid @0x7d30", h)
	}
	if l.RecordsWritten != 1 {
		t.Fatalf("RecordsWritten = %d", l.RecordsWritten)
	}
}

func TestRecordsAreTimeOrdered(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	for i := 0; i < 10; i++ {
		l.Snoop(machine.LoggedWrite{Addr: 0x1000 + uint32(i*4), Value: uint32(i), Size: 4, Time: uint64(i * 6)})
	}
	l.DrainAll()
	frame := mem.Frame(2)
	for i := 1; i < 10; i++ {
		prev, rec := logrec.Decode(frame[(i-1)*logrec.Size:]), logrec.Decode(frame[i*logrec.Size:])
		if rec.Timestamp < prev.Timestamp {
			t.Fatalf("records out of order at %d: %v then %v", i, prev, rec)
		}
		if rec.Value != uint32(i) {
			t.Fatalf("record %d value = %d", i, rec.Value)
		}
	}
}

func TestPageCrossingInvalidatesHead(t *testing.T) {
	l, _, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x3000-logrec.Size, ModeRecord) // one record left in page 2
	l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: 1, Size: 4, Time: 10})
	l.DrainAll()
	if h := l.LogHead(0); h.Valid {
		t.Fatalf("log head still valid after page crossing: %+v", h)
	}
}

func TestInvalidHeadFaultsAndKernelFixes(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	var faults []Fault
	l.OnFault = func(lg *Logger, f Fault) bool {
		faults = append(faults, f)
		lg.SetLogHead(0, 0x4000, ModeRecord)
		return true
	}
	l.Snoop(machine.LoggedWrite{Addr: 0x1008, Value: 7, Size: 4, Time: 5})
	l.DrainAll()
	if len(faults) != 1 || faults[0].Kind != FaultInvalidLogAddr {
		t.Fatalf("faults = %+v", faults)
	}
	rec := logrec.Decode(mem.Frame(4)[:])
	if rec.Value != 7 {
		t.Fatalf("record after fault fix = %+v", rec)
	}
}

func TestMissingPMTFaults(t *testing.T) {
	l, _, _ := newRig(t, 8)
	var got Fault
	l.OnFault = func(lg *Logger, f Fault) bool {
		got = f
		return false // kernel declines: record dropped
	}
	l.Snoop(machine.LoggedWrite{Addr: 0x5123, Value: 1, Size: 4, Time: 1})
	l.DrainAll()
	if got.Kind != FaultMissingPMT || got.PPN != 5 {
		t.Fatalf("fault = %+v", got)
	}
	if l.RecordsLost != 1 {
		t.Fatalf("RecordsLost = %d, want 1", l.RecordsLost)
	}
}

func TestPMTTagMismatchIsMissing(t *testing.T) {
	l, _, _ := newRig(t, 8)
	// Two pages with the same PMT index but different tags: PPN x and
	// x + 2^15.
	l.LoadPMT(3, 0)
	other := uint32(3 + (1 << 15))
	if _, ok := l.LookupPMT(other); ok {
		t.Fatalf("tag mismatch lookup succeeded")
	}
	if idx, ok := l.LookupPMT(3); !ok || idx != 0 {
		t.Fatalf("lookup(3) = %d,%v", idx, ok)
	}
	// Loading the conflicting page displaces the first.
	displaced := l.LoadPMT(other, 1)
	if !displaced.Valid || displaced.LogIndex != 0 {
		t.Fatalf("displaced = %+v", displaced)
	}
	if _, ok := l.LookupPMT(3); ok {
		t.Fatalf("displaced entry still present")
	}
}

func TestOverloadDrainsAndStalls(t *testing.T) {
	l, _, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	l.OnFault = func(lg *Logger, f Fault) bool {
		// Keep the log running through page crossings.
		if f.Kind == FaultInvalidLogAddr {
			lg.SetLogHead(0, 0x2000, ModeRecord) // wrap in place
			return true
		}
		return false
	}
	var stall uint64
	for i := 0; ; i++ {
		s, _ := l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: uint32(i), Size: 4, Time: uint64(i)})
		if s > uint64(i) {
			stall = s
			break
		}
		if i > 2*cycles.LoggerOverloadThreshold {
			t.Fatalf("no overload after %d writes", i)
		}
	}
	if l.Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", l.Overloads)
	}
	if l.Pending() != 0 {
		t.Fatalf("FIFO not drained after overload: %d pending", l.Pending())
	}
	// The stall must cover the drain plus the kernel overhead: > 30,000
	// cycles per Section 4.5.3.
	if stall < 30_000 {
		t.Fatalf("overload stall = %d cycles, want > 30000", stall)
	}
}

func TestServiceCostUncontended(t *testing.T) {
	l, _, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: 1, Size: 4, Time: 100})
	done := l.DrainAll()
	if done != 100+cycles.LoggerServiceCycles {
		t.Fatalf("service completed at %d, want %d", done, 100+cycles.LoggerServiceCycles)
	}
}

func TestDirectMode(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x6000, ModeDirect)
	l.Snoop(machine.LoggedWrite{Addr: 0x1250, Value: 0xCAFE, Size: 2, Time: 1})
	l.Snoop(machine.LoggedWrite{Addr: 0x1254, Value: 0xBEEF, Size: 2, Time: 2})
	l.DrainAll()
	f := mem.Frame(6)
	if got := uint32(f[0x250]) | uint32(f[0x251])<<8; got != 0xCAFE {
		t.Fatalf("direct write 1 = %#x", got)
	}
	if got := uint32(f[0x254]) | uint32(f[0x255])<<8; got != 0xBEEF {
		t.Fatalf("direct write 2 = %#x", got)
	}
	if h := l.LogHead(0); !h.Valid || h.Addr != 0x6000 {
		t.Fatalf("direct-mode head moved: %+v", h)
	}
}

func TestIndexedMode(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x7000, ModeIndexed)
	for i := uint32(0); i < 5; i++ {
		l.Snoop(machine.LoggedWrite{Addr: 0x1000 + i*8, Value: 100 + i, Size: 4, Time: uint64(i)})
	}
	l.DrainAll()
	for i := uint32(0); i < 5; i++ {
		if got := mem.Read32(0x7000 + i*4); got != 100+i {
			t.Fatalf("indexed value %d = %d, want %d", i, got, 100+i)
		}
	}
	if h := l.LogHead(0); h.Addr != 0x7014 {
		t.Fatalf("indexed head = %#x, want 0x7014", h.Addr)
	}
}

func TestPumpUntilStopsAtBoundary(t *testing.T) {
	l, _, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: 1, Size: 4, Time: 100})
	l.Snoop(machine.LoggedWrite{Addr: 0x1004, Value: 2, Size: 4, Time: 106})
	// The first record's DMA requests the bus at 100+lookup; a competing
	// request arriving before then goes first, so the pump must not
	// service it.
	l.PumpUntil(100 + cycles.LoggerLookupCycles)
	if l.Pending() != 2 {
		t.Fatalf("PumpUntil serviced a record whose bus request was later: %d pending", l.Pending())
	}
	l.PumpUntil(100 + cycles.LoggerLookupCycles + 1)
	if l.Pending() != 1 {
		t.Fatalf("PumpUntil did not service the first record")
	}
	l.DrainAll()
	if l.RecordsWritten != 2 {
		t.Fatalf("RecordsWritten = %d", l.RecordsWritten)
	}
}

func TestCapacityDropWhenOverloadDisabled(t *testing.T) {
	l, _, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	// Disable the overload interrupt (threshold beyond capacity): the
	// FIFO must drop excess writes rather than grow without bound.
	l.Capacity = 16
	l.Threshold = 1000
	for i := uint32(0); i < 40; i++ {
		l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: i, Size: 4, Time: 0})
	}
	if l.Pending() > 16 {
		t.Fatalf("FIFO exceeded capacity: %d", l.Pending())
	}
	if l.RecordsLost == 0 {
		t.Fatalf("no records dropped at capacity")
	}
	l.DrainAll()
}

func TestTimestampResolution(t *testing.T) {
	// The 6.25 MHz logger clock ticks once per four CPU cycles.
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	l.Snoop(machine.LoggedWrite{Addr: 0x1000, Value: 1, Size: 4, Time: 400})
	l.DrainAll()
	rec := logrec.Decode(mem.Frame(2)[:])
	if rec.Timestamp != 100 {
		t.Fatalf("timestamp = %d, want 100 (= 400 cycles / 4)", rec.Timestamp)
	}
}

func TestTwoLogsInterleave(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.LoadPMT(2, 1)
	l.SetLogHead(0, 0x3000, ModeRecord)
	l.SetLogHead(1, 0x4000, ModeRecord)
	for i := uint32(0); i < 6; i++ {
		page := uint32(0x1000)
		if i%2 == 1 {
			page = 0x2000
		}
		l.Snoop(machine.LoggedWrite{Addr: page + i*4, Value: i, Size: 4, Time: uint64(i)})
	}
	l.DrainAll()
	for i := uint32(0); i < 3; i++ {
		a := logrec.Decode(mem.Frame(3)[i*16:])
		b := logrec.Decode(mem.Frame(4)[i*16:])
		if a.Value != i*2 || b.Value != i*2+1 {
			t.Fatalf("interleave broken: %v / %v", a, b)
		}
	}
}
