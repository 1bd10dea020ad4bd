package vm

import (
	"bytes"
	"testing"

	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
)

func testKernel() *Kernel {
	return NewKernel(machine.Config{NumCPUs: 2, MemFrames: 1024})
}

// mustSource wires dst's deferred-copy source, failing the test on error.
func mustSource(t *testing.T, dst, src *Segment, off uint32) {
	t.Helper()
	if err := dst.SetSourceSegment(src, off); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentZeroFill(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", 2*PageSize, nil)
	if s.Read32(100) != 0 {
		t.Fatalf("fresh segment not zero")
	}
	s.Write32(100, 42)
	if s.Read32(100) != 42 {
		t.Fatalf("raw write lost")
	}
}

type patternFill struct{ v byte }

func (p patternFill) FillPage(_ *Segment, page uint32, data *[PageSize]byte) {
	for i := range data {
		data[i] = p.v + byte(page)
	}
}

func TestSegmentManagerFillsPages(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", 2*PageSize, patternFill{v: 7})
	if got := s.RawRead(0, 1)[0]; got != 0 {
		// Non-resident read does not fault in: it reads zero.
		t.Fatalf("non-resident read = %d, want 0", got)
	}
	if _, err := s.ensureFrame(0); err != nil {
		t.Fatal(err)
	}
	if got := s.RawRead(10, 1)[0]; got != 7 {
		t.Fatalf("page 0 fill = %d, want 7", got)
	}
	if _, err := s.ensureFrame(1); err != nil {
		t.Fatal(err)
	}
	if got := s.RawRead(PageSize+10, 1)[0]; got != 8 {
		t.Fatalf("page 1 fill = %d, want 8", got)
	}
}

func TestBindAndStoreLoad(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", PageSize, nil)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, err := r.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := k.NewProcess(0, as)
	p.Store32(base+16, 0xABCD)
	if got := p.Load32(base + 16); got != 0xABCD {
		t.Fatalf("load = %#x", got)
	}
	if got := s.Read32(16); got != 0xABCD {
		t.Fatalf("segment data = %#x", got)
	}
}

func TestBindAtFixedAddress(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", PageSize, nil)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, err := r.Bind(as, 0x2000_0000)
	if err != nil || base != 0x2000_0000 {
		t.Fatalf("bind = %#x, %v", base, err)
	}
	s2 := k.NewSegment("s2", PageSize, nil)
	r2 := k.NewRegion(s2)
	if _, err := r2.Bind(as, 0x2000_0000); err == nil {
		t.Fatalf("overlapping bind succeeded")
	}
	if _, err := r2.Bind(as, 0x2000_0004); err == nil {
		t.Fatalf("unaligned bind succeeded")
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	k := testKernel()
	p := k.NewProcess(0, k.NewAddressSpace())
	defer func() {
		if recover() == nil {
			t.Fatalf("store to unmapped address did not panic")
		}
	}()
	p.Store32(0xDEAD0000, 1)
}

func TestUnalignedAccessPanics(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", PageSize, nil)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	defer func() {
		if recover() == nil {
			t.Fatalf("unaligned store did not panic")
		}
	}()
	p.Store32(base+2, 1)
}

func setupLogged(t *testing.T, k *Kernel, segPages, logPages uint32) (*Region, *Segment, *Segment, *Process, Addr) {
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

func TestLoggedWritesProduceRecords(t *testing.T) {
	k := testKernel()
	_, s, ls, p, base := setupLogged(t, k, 1, 4)
	p.Store32(base+0x10, 111)
	p.Store32(base+0x20, 222)
	p.Store16(base+0x30, 333)
	p.Store8(base+0x33, 44)
	k.Sync()
	end := k.LogAppendOffset(ls)
	if end != 4*logrec.Size {
		t.Fatalf("append offset = %d, want %d", end, 4*logrec.Size)
	}
	raw := ls.RawRead(0, end)
	var recs []logrec.Record
	for off := 0; off < len(raw); off += logrec.Size {
		recs = append(recs, logrec.Decode(raw[off:]))
	}
	wantVals := []uint32{111, 222, 333, 44}
	wantSizes := []uint16{4, 4, 2, 1}
	for i, rec := range recs {
		if rec.Value != wantVals[i] || rec.WriteSize != wantSizes[i] {
			t.Fatalf("record %d = %+v", i, rec)
		}
		seg, off, ok := k.ReverseTranslate(rec.Addr)
		if !ok || seg != s {
			t.Fatalf("record %d reverse translation failed", i)
		}
		if i == 0 && off != 0x10 {
			t.Fatalf("record 0 offset = %#x", off)
		}
	}
	// Timestamps non-decreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Timestamp < recs[i-1].Timestamp {
			t.Fatalf("timestamps out of order")
		}
	}
}

func TestUnloggedWritesProduceNoRecords(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("data", PageSize, nil)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	for i := uint32(0); i < 100; i++ {
		p.Store32(base+i*4, i)
	}
	k.Sync()
	if k.Log.RecordsWritten != 0 {
		t.Fatalf("unlogged region produced %d records", k.Log.RecordsWritten)
	}
}

func TestLogSpansPagesViaLoggingFaults(t *testing.T) {
	k := testKernel()
	_, _, ls, p, base := setupLogged(t, k, 1, 4)
	// One page holds 256 records; write 600 to span 3 pages.
	for i := uint32(0); i < 600; i++ {
		p.Store32(base+(i%1024)*4, i)
	}
	k.Sync()
	if got := k.LogAppendOffset(ls); got != 600*logrec.Size {
		t.Fatalf("append offset = %d, want %d", got, 600*logrec.Size)
	}
	if k.LoggingFaults < 2 {
		t.Fatalf("expected page-crossing logging faults, got %d", k.LoggingFaults)
	}
	// Record 300 lives on page 1 and must be intact.
	rec := logrec.Decode(ls.RawRead(300*logrec.Size, logrec.Size))
	if rec.Value != 300 {
		t.Fatalf("record 300 = %+v", rec)
	}
	if ls.LostRecords() != 0 {
		t.Fatalf("lost %d records with space available", ls.LostRecords())
	}
}

func TestLogOverflowAbsorbs(t *testing.T) {
	k := testKernel()
	_, _, ls, p, base := setupLogged(t, k, 1, 1) // one page = 256 records
	for i := uint32(0); i < 300; i++ {
		p.Store32(base, i)
	}
	k.Sync()
	if ls.LostRecords() == 0 {
		t.Fatalf("no records lost despite overflow")
	}
	if k.AbsorbedPages == 0 {
		t.Fatalf("absorb page never used")
	}
	// The first 256 records are intact.
	rec := logrec.Decode(ls.RawRead(255*logrec.Size, logrec.Size))
	if rec.Value != 255 {
		t.Fatalf("record 255 = %+v", rec)
	}
}

func TestExtendRecoversFromAbsorb(t *testing.T) {
	k := testKernel()
	_, _, ls, p, base := setupLogged(t, k, 1, 1)
	for i := uint32(0); i < 300; i++ {
		p.Store32(base, i)
	}
	k.Sync()
	lost := ls.LostRecords()
	ls.Extend(4)
	for i := uint32(0); i < 100; i++ {
		p.Store32(base, 1000+i)
	}
	k.Sync()
	if ls.LostRecords() != lost {
		t.Fatalf("still losing records after extend")
	}
	// New records continue on the extended pages.
	rec := logrec.Decode(ls.RawRead(256*logrec.Size, logrec.Size))
	if rec.Value < 1000 {
		t.Fatalf("first record after extend = %+v", rec)
	}
}

func TestWriteThroughModeSetOnLoggedPages(t *testing.T) {
	k := testKernel()
	_, _, _, p, base := setupLogged(t, k, 1, 2)
	start := p.CPU.Now
	p.Store32(base, 1) // page fault + write-through
	faultCost := p.CPU.Now - start
	if faultCost < cycles.PageFaultCycles {
		t.Fatalf("first touch cost %d < page fault cost", faultCost)
	}
	start = p.CPU.Now
	p.Store32(base+4, 2)
	if got := p.CPU.Now - start; got != cycles.WordWriteThroughTotal {
		t.Fatalf("logged write cost = %d, want %d", got, cycles.WordWriteThroughTotal)
	}
}

func TestOneActiveLogPerSegment(t *testing.T) {
	// The prototype's physical page-mapping table supports one ACTIVE
	// log per segment; a second region's log registers but stays
	// inactive until a context switch activates it (Section 3.1.2).
	k := testKernel()
	s := k.NewSegment("data", PageSize, nil)
	r1 := k.NewRegion(s)
	r2 := k.NewRegion(s)
	ls1 := k.NewLogSegment("l1", 2)
	ls2 := k.NewLogSegment("l2", 2)
	if err := r1.Log(ls1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Log(ls2); err != nil {
		t.Fatalf("second log registration failed: %v", err)
	}
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	b1, _ := r1.Bind(as1, 0)
	b2, _ := r2.Bind(as2, 0)
	p1 := k.NewProcess(0, as1)
	p2 := k.NewProcess(0, as2)
	// r1's log is active: writes through EITHER region land in ls1.
	p1.Store32(b1, 1)
	p2.Store32(b2+4, 2)
	k.Sync()
	if got := k.LogAppendOffset(ls1) / 16; got != 2 {
		t.Fatalf("active log records = %d, want 2", got)
	}
	if got := k.LogAppendOffset(ls2); got != 0 {
		t.Fatalf("inactive log grew: %d", got)
	}
}

func TestContextSwitchSelectsPerProcessLog(t *testing.T) {
	// Section 2.5: "Using a separate log per region means that each
	// process can have a separate log so transactions are not randomly
	// intermixed in the log" — realized on the prototype hardware by
	// reloading the logger tables at context-switch time.
	k := testKernel()
	s := k.NewSegment("shared-db", PageSize, nil)
	r1 := k.NewRegion(s)
	r2 := k.NewRegion(s)
	ls1 := k.NewLogSegment("proc1-log", 4)
	ls2 := k.NewLogSegment("proc2-log", 4)
	if err := r1.Log(ls1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Log(ls2); err != nil {
		t.Fatal(err)
	}
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	b1, _ := r1.Bind(as1, 0)
	b2, _ := r2.Bind(as2, 0)
	p := k.NewProcess(0, as1)

	// Process 1 runs.
	p.Store32(b1, 101)
	p.Store32(b1+4, 102)
	// Switch to process 2.
	if err := k.ContextSwitch(p, as2); err != nil {
		t.Fatal(err)
	}
	p.Store32(b2+8, 201)
	// And back.
	if err := k.ContextSwitch(p, as1); err != nil {
		t.Fatal(err)
	}
	p.Store32(b1+12, 103)
	k.Sync()

	if got := k.LogAppendOffset(ls1) / 16; got != 3 {
		t.Fatalf("process 1 log records = %d, want 3", got)
	}
	if got := k.LogAppendOffset(ls2) / 16; got != 1 {
		t.Fatalf("process 2 log records = %d, want 1", got)
	}
	rec := logrec.Decode(ls2.RawRead(0, 16))
	if rec.Value != 201 {
		t.Fatalf("process 2 record = %+v", rec)
	}
	// The shared data is all there regardless of which log captured it.
	if s.Read32(0) != 101 || s.Read32(8) != 201 || s.Read32(12) != 103 {
		t.Fatalf("shared data wrong")
	}
}

func TestSharedSegmentTwoAddressSpaces(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("shared", PageSize, nil)
	r1 := k.NewRegion(s)
	r2 := k.NewRegion(s)
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	b1, _ := r1.Bind(as1, 0)
	b2, _ := r2.Bind(as2, 0)
	p1 := k.NewProcess(0, as1)
	p2 := k.NewProcess(1, as2)
	p1.Store32(b1+40, 777)
	if got := p2.Load32(b2 + 40); got != 777 {
		t.Fatalf("shared segment not shared: %d", got)
	}
}

// --- Deferred copy (Section 2.3 / 3.3) ---

func TestDeferredCopyReadsThrough(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", PageSize, nil)
	src.Write32(0x40, 1234)
	dst := k.NewSegment("dst", PageSize, nil)
	if err := dst.SetSourceSegment(src, 0); err != nil {
		t.Fatal(err)
	}
	if got := dst.Read32(0x40); got != 1234 {
		t.Fatalf("deferred read = %d, want 1234", got)
	}
}

func TestDeferredCopyWritesDoNotTouchSource(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", PageSize, nil)
	src.Write32(0x40, 1234)
	dst := k.NewSegment("dst", PageSize, nil)
	mustSource(t, dst, src, 0)
	dst.Write32(0x40, 5678)
	if got := dst.Read32(0x40); got != 5678 {
		t.Fatalf("dst after write = %d", got)
	}
	if got := src.Read32(0x40); got != 1234 {
		t.Fatalf("source modified: %d", got)
	}
	// Partial-line write keeps neighbouring source bytes.
	src.Write32(0x80, 0xAAAAAAAA)
	src.Write32(0x84, 0xBBBBBBBB)
	dst.Write32(0x80, 1)
	if got := dst.Read32(0x84); got != 0xBBBBBBBB {
		t.Fatalf("partial-line materialization lost neighbour: %#x", got)
	}
}

func TestDeferredCopyWithOffset(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", 2*PageSize, nil)
	src.Write32(PageSize+0x10, 99)
	dst := k.NewSegment("dst", PageSize, nil)
	if err := dst.SetSourceSegment(src, PageSize); err != nil {
		t.Fatal(err)
	}
	if got := dst.Read32(0x10); got != 99 {
		t.Fatalf("offset deferred read = %d", got)
	}
	// Source smaller than needed is rejected.
	small := k.NewSegment("small", PageSize, nil)
	dst2 := k.NewSegment("dst2", 2*PageSize, nil)
	if err := dst2.SetSourceSegment(small, PageSize); err == nil {
		t.Fatalf("oversized deferred copy accepted")
	}
}

func TestResetDeferredCopyRollsBack(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", PageSize, nil)
	for i := uint32(0); i < 64; i++ {
		src.Write32(i*4, i)
	}
	dst := k.NewSegment("dst", PageSize, nil)
	mustSource(t, dst, src, 0)
	r := k.NewRegion(dst)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	p.Store32(base+8, 9999)
	if got := p.Load32(base + 8); got != 9999 {
		t.Fatalf("pre-reset read = %d", got)
	}
	st, err := as.ResetDeferredCopy(base, base+PageSize, p.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages != 1 || st.LinesReset != 1 {
		t.Fatalf("reset stats = %+v", st)
	}
	if got := p.Load32(base + 8); got != 2 {
		t.Fatalf("post-reset read = %d, want 2 (source value)", got)
	}
	// Unmodified locations still read through.
	if got := p.Load32(base + 40); got != 10 {
		t.Fatalf("post-reset clean read = %d", got)
	}
}

func TestResetCostProportionalToDirtyData(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", 8*PageSize, nil)
	dst := k.NewSegment("dst", 8*PageSize, nil)
	mustSource(t, dst, src, 0)
	r := k.NewRegion(dst)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)

	// Dirty one page sparsely.
	p.Store32(base, 1)
	st1, _ := as.ResetDeferredCopy(base, base+8*PageSize, p.CPU)

	// Dirty one page fully.
	for off := uint32(0); off < PageSize; off += 4 {
		p.Store32(base+off, 1)
	}
	st2, _ := as.ResetDeferredCopy(base, base+8*PageSize, p.CPU)
	if st2.Cycles <= st1.Cycles {
		t.Fatalf("full-page reset (%d) not costlier than one-line reset (%d)", st2.Cycles, st1.Cycles)
	}
	wantFull := uint64(LinesPerPage)*cycles.ResetLineCycles + 8*cycles.ResetPageCheckCycles
	if st2.Cycles != wantFull {
		t.Fatalf("full-page reset cost = %d, want %d", st2.Cycles, wantFull)
	}
}

func TestResetCrossoverNearTwoThirds(t *testing.T) {
	// Figure 9: resetDeferredCopy beats bcopy below ~2/3 dirty.
	full := uint64(LinesPerPage) * cycles.ResetLineCycles
	bcopyPage := uint64(LinesPerPage) * cycles.BcopyLineCycles
	ratio := float64(bcopyPage) / float64(full)
	if ratio < 0.6 || ratio > 0.72 {
		t.Fatalf("crossover ratio = %.3f, want ~2/3", ratio)
	}
}

func TestBcopyCopiesAndCharges(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", PageSize, nil)
	dst := k.NewSegment("dst", PageSize, nil)
	for i := uint32(0); i < PageSize; i += 4 {
		src.Write32(i, i)
	}
	cpu := k.M.CPUs[0]
	before := cpu.Now
	if err := k.Bcopy(cpu, dst, 0, src, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	want := uint64(PageSize/LineSize) * cycles.BcopyLineCycles
	if cpu.Now-before != want {
		t.Fatalf("bcopy cost = %d, want %d", cpu.Now-before, want)
	}
	if dst.Read32(0x100) != 0x100 {
		t.Fatalf("bcopy data wrong")
	}
}

// TestBcopyOverlapIsMemmove: Bcopy streams a page at a time, so a copy
// within one segment whose ranges overlap must still read every byte
// before overwriting it, in both directions and across page boundaries.
func TestBcopyOverlapIsMemmove(t *testing.T) {
	const size = 4 * PageSize
	for _, c := range []struct{ src, dst, n uint32 }{
		{0, 100, 2*PageSize + 7},
		{100, 0, 2*PageSize + 7},
		{5, PageSize + 3, 2 * PageSize},
		{PageSize + 3, 5, 2 * PageSize},
		{8, 8, PageSize},
	} {
		k := testKernel()
		seg := k.NewSegment("seg", size, nil)
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + i>>8)
		}
		seg.RawWrite(0, want)
		copy(want[c.dst:c.dst+c.n], want[c.src:c.src+c.n])
		if err := k.Bcopy(nil, seg, c.dst, seg, c.src, c.n); err != nil {
			t.Fatal(err)
		}
		if got := seg.RawRead(0, size); !bytes.Equal(got, want) {
			t.Fatalf("Bcopy(src %d, dst %d, n %d) differs from memmove", c.src, c.dst, c.n)
		}
	}
}

func TestDeferredCopyChainedSources(t *testing.T) {
	k := testKernel()
	a := k.NewSegment("a", PageSize, nil)
	a.Write32(0, 5)
	b := k.NewSegment("b", PageSize, nil)
	mustSource(t, b, a, 0)
	c := k.NewSegment("c", PageSize, nil)
	mustSource(t, c, b, 0)
	if got := c.Read32(0); got != 5 {
		t.Fatalf("chained read = %d", got)
	}
	b.Write32(0, 6)
	if got := c.Read32(0); got != 6 {
		t.Fatalf("chained read after middle write = %d", got)
	}
}

func TestReverseTranslate(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", 2*PageSize, nil)
	s.Write32(PageSize+12, 1) // makes page 1 resident
	frame := s.Frame(1)
	seg, off, ok := k.ReverseTranslate(frame<<PageShift + 12)
	if !ok || seg != s || off != PageSize+12 {
		t.Fatalf("reverse translate = %v %d %v", seg, off, ok)
	}
	if _, _, ok := k.ReverseTranslate(0xFFFF_F000); ok {
		t.Fatalf("reverse translate of unowned frame succeeded")
	}
}

func TestOverloadSuspendsProcesses(t *testing.T) {
	k := testKernel()
	_, _, _, p, base := setupLogged(t, k, 1, 64)
	// Issue logged writes with no compute: the logger must overload.
	for i := uint32(0); i < 2000; i++ {
		p.Store32(base+(i%1024)*4, i)
	}
	if k.Overloads == 0 {
		t.Fatalf("no overload despite zero compute per logged write")
	}
}

func TestNoOverloadWithEnoughCompute(t *testing.T) {
	k := testKernel()
	_, _, _, p, base := setupLogged(t, k, 1, 64)
	// One logged write per 100 compute cycles: well above the ~27-cycle
	// threshold of Figure 12.
	for i := uint32(0); i < 2000; i++ {
		p.Compute(100)
		p.Store32(base+(i%1024)*4, i)
	}
	if k.Overloads != 0 {
		t.Fatalf("overloaded %d times despite ample compute", k.Overloads)
	}
}
