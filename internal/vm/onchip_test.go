package vm

import (
	"testing"

	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
)

func chipKernel() *Kernel {
	return NewKernelOnChip(machine.Config{NumCPUs: 2, MemFrames: 2048})
}

func setupChipLogged(t *testing.T, k *Kernel, segPages, logPages uint32) (*Region, *Segment, *Segment, *Process, Addr) {
	t.Helper()
	s := k.NewSegment("data", segPages*PageSize, nil)
	ls := k.NewLogSegment("log", logPages)
	r := k.NewRegion(s)
	if err := r.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := k.NewAddressSpace()
	base, err := r.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, s, ls, k.NewProcess(0, as), base
}

func TestOnChipRecordsVirtualAddresses(t *testing.T) {
	k := chipKernel()
	_, _, ls, p, base := setupChipLogged(t, k, 1, 4)
	p.Store32(base+0x20, 77)
	k.Sync()
	rec := logrec.Decode(ls.RawRead(0, logrec.Size))
	if rec.Addr != base+0x20 {
		t.Fatalf("record addr = %#x, want virtual %#x (Section 4.6)", rec.Addr, base+0x20)
	}
	if rec.Value != 77 {
		t.Fatalf("record = %+v", rec)
	}
	seg, off, ok := k.ResolveLogAddr(ls, rec.Addr)
	if !ok || off != 0x20 || seg == nil {
		t.Fatalf("ResolveLogAddr = %v %d %v", seg, off, ok)
	}
}

func TestOnChipLoggedWritesStayWriteBack(t *testing.T) {
	k := chipKernel()
	_, _, _, p, base := setupChipLogged(t, k, 1, 4)
	p.Store32(base, 1) // fault
	// Steady-state logged write: same cost as an unlogged write-back
	// store (L1 hit = 1 cycle) — "essentially the same as unlogged
	// writes" (Section 4.6).
	start := p.CPU.Now
	p.Store32(base+4, 2) // same L1 line: hit
	if got := p.CPU.Now - start; got != cycles.L1HitCycles {
		t.Fatalf("on-chip logged write cost = %d, want %d", got, cycles.L1HitCycles)
	}
}

func TestOnChipPerRegionLogsOnOneSegment(t *testing.T) {
	// Two regions mapping the SAME segment log to DIFFERENT segments —
	// impossible with the prototype (Section 3.1.2), natural on-chip.
	k := chipKernel()
	s := k.NewSegment("shared", PageSize, nil)
	r1 := k.NewRegion(s)
	r2 := k.NewRegion(s)
	ls1 := k.NewLogSegment("l1", 2)
	ls2 := k.NewLogSegment("l2", 2)
	if err := r1.Log(ls1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Log(ls2); err != nil {
		t.Fatalf("second logged region rejected on-chip: %v", err)
	}
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	b1, _ := r1.Bind(as1, 0)
	b2, _ := r2.Bind(as2, 0)
	p1 := k.NewProcess(0, as1)
	p2 := k.NewProcess(1, as2)
	p1.Store32(b1+8, 111)
	p2.Store32(b2+12, 222)
	k.Sync()
	if got := k.LogAppendOffset(ls1); got != logrec.Size {
		t.Fatalf("log1 offset = %d", got)
	}
	if got := k.LogAppendOffset(ls2); got != logrec.Size {
		t.Fatalf("log2 offset = %d", got)
	}
	r1rec := logrec.Decode(ls1.RawRead(0, logrec.Size))
	r2rec := logrec.Decode(ls2.RawRead(0, logrec.Size))
	if r1rec.Value != 111 || r2rec.Value != 222 {
		t.Fatalf("per-process logs mixed: %v / %v", r1rec, r2rec)
	}
	// Both wrote the same underlying segment.
	if s.Read32(8) != 111 || s.Read32(12) != 222 {
		t.Fatalf("shared segment data wrong")
	}
}

func TestOnChipLogSpansPages(t *testing.T) {
	k := chipKernel()
	_, _, ls, p, base := setupChipLogged(t, k, 1, 4)
	for i := uint32(0); i < 600; i++ {
		p.Store32(base+(i%1024)*4, i)
	}
	k.Sync()
	if got := k.LogAppendOffset(ls); got != 600*logrec.Size {
		t.Fatalf("append offset = %d, want %d", got, 600*logrec.Size)
	}
	rec := logrec.Decode(ls.RawRead(300*logrec.Size, logrec.Size))
	if rec.Value != 300 {
		t.Fatalf("record 300 = %+v", rec)
	}
	if ls.LostRecords() != 0 {
		t.Fatalf("lost %d records", ls.LostRecords())
	}
}

func TestOnChipAbsorbAndExtend(t *testing.T) {
	k := chipKernel()
	_, _, ls, p, base := setupChipLogged(t, k, 1, 1)
	for i := uint32(0); i < 300; i++ {
		p.Store32(base, i)
	}
	k.Sync()
	if ls.LostRecords() == 0 {
		t.Fatalf("no records lost on overflow")
	}
	lost := ls.LostRecords()
	ls.Extend(4)
	p.Store32(base, 9999)
	k.Sync()
	if ls.LostRecords() != lost {
		t.Fatalf("still losing after extend")
	}
	rec := logrec.Decode(ls.RawRead(256*logrec.Size, logrec.Size))
	if rec.Value != 9999 {
		t.Fatalf("first record after extend = %+v", rec)
	}
}

func TestOnChipNoOverloadEver(t *testing.T) {
	k := chipKernel()
	_, _, _, p, base := setupChipLogged(t, k, 1, 64)
	for i := uint32(0); i < 3000; i++ {
		p.Store32(base+(i%1024)*4, i) // zero compute between writes
	}
	if k.Overloads != 0 {
		t.Fatalf("on-chip design overloaded")
	}
	if k.Chip.StallEvents == 0 {
		t.Fatalf("write buffer never stalled despite back-to-back writes")
	}
}

func TestOnChipRewind(t *testing.T) {
	k := chipKernel()
	_, _, ls, p, base := setupChipLogged(t, k, 1, 4)
	for i := uint32(0); i < 10; i++ {
		p.Store32(base, i)
	}
	if err := k.RewindLog(ls, 4*logrec.Size); err != nil {
		t.Fatal(err)
	}
	p.Store32(base, 100)
	k.Sync()
	if got := k.LogAppendOffset(ls); got != 5*logrec.Size {
		t.Fatalf("offset after rewind+write = %d", got)
	}
	rec := logrec.Decode(ls.RawRead(4*logrec.Size, logrec.Size))
	if rec.Value != 100 {
		t.Fatalf("record after rewind = %+v", rec)
	}
}

func TestOnChipDeferredCopyInterop(t *testing.T) {
	// The full RLVM-style arrangement on the on-chip kernel: logged
	// working segment over a checkpoint source.
	k := chipKernel()
	ckpt := k.NewSegment("ckpt", PageSize, nil)
	ckpt.Write32(0x10, 5)
	work := k.NewSegment("work", PageSize, nil)
	if err := work.SetSourceSegment(ckpt, 0); err != nil {
		t.Fatal(err)
	}
	r := k.NewRegion(work)
	ls := k.NewLogSegment("log", 4)
	if err := r.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	if got := p.Load32(base + 0x10); got != 5 {
		t.Fatalf("read-through = %d", got)
	}
	p.Store32(base+0x10, 6)
	if _, err := as.ResetDeferredCopy(base, base+PageSize, p.CPU); err != nil {
		t.Fatal(err)
	}
	if got := p.Load32(base + 0x10); got != 5 {
		t.Fatalf("after reset = %d", got)
	}
	k.Sync()
	if got := k.LogAppendOffset(ls); got != logrec.Size {
		t.Fatalf("log records = %d bytes", got)
	}
}
