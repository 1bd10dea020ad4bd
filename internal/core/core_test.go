package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"lvm/internal/logrec"
)

// buildLogged is the Section 2.2 example: a logged region bound into an
// address space.
func buildLogged(t *testing.T, segPages, logPages uint32) (*System, *region, *Segment, *Process, Addr) {
	t.Helper()
	sys := NewSystem(Config{NumCPUs: 2, MemFrames: 2048})
	seg := NewStdSegment(sys, segPages*PageSize, nil)
	reg := newRegion(sys, seg)
	ls := NewLogSegment(sys, logPages)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, reg, ls, sys.NewProcess(0, as), base
}

func TestTable1Example(t *testing.T) {
	// The code sample of Section 2.2 end to end.
	sys, reg, ls, p, base := buildLogged(t, 1, 4)
	p.Store32(base+0x100, 0xFEED)
	r := NewLogReader(sys, ls)
	if r.Remaining() != 1 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	rec, ok := r.Next()
	if !ok || rec.Value != 0xFEED || rec.WriteSize != 4 {
		t.Fatalf("record = %+v ok=%v", rec, ok)
	}
	if rec.Seg != reg.Segment() || rec.SegOff != 0x100 {
		t.Fatalf("reverse translation: seg=%v off=%#x", rec.Seg, rec.SegOff)
	}
	if va, ok := rec.VAIn(reg); !ok || va != base+0x100 {
		t.Fatalf("VAIn = %#x, %v", va, ok)
	}
}

func TestLogReaderOrderAndSync(t *testing.T) {
	sys, _, ls, p, base := buildLogged(t, 1, 8)
	for i := uint32(0); i < 50; i++ {
		p.Store32(base+i*4, i)
	}
	r := NewLogReader(sys, ls)
	for i := uint32(0); i < 50; i++ {
		rec, ok := r.Next()
		if !ok || rec.Value != i {
			t.Fatalf("record %d = %+v ok=%v", i, rec, ok)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatalf("reader did not stop at end")
	}
	// More writes; reader sees them only after Sync.
	p.Store32(base, 999)
	if _, ok := r.Next(); ok {
		t.Fatalf("reader saw unsynced record")
	}
	r.Sync()
	rec, ok := r.Next()
	if !ok || rec.Value != 999 {
		t.Fatalf("post-sync record = %+v", rec)
	}
}

// rollForward reads up to max records of r and writes each that landed
// in src into dst at the same offset, the CULT primitive; it returns how
// many it wrote.
func rollForward(r *LogReader, src, dst *Segment, max int) int {
	n := 0
	for i := 0; i < max; i++ {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Seg == src {
			dst.RawWrite(rec.SegOff, binary.LittleEndian.AppendUint32(nil, rec.Value)[:rec.WriteSize])
			n++
		}
	}
	return n
}

func TestApplyRollsForward(t *testing.T) {
	// The CULT primitive: applying log records to a checkpoint segment
	// makes it equal to the working segment.
	sys, reg, ls, p, base := buildLogged(t, 2, 16)
	ckpt := NewNamedSegment(sys, "ckpt", 2*PageSize, nil)
	for i := uint32(0); i < 200; i++ {
		p.Store32(base+(i*12)%(2*PageSize), i)
	}
	r := NewLogReader(sys, ls)
	applied := rollForward(r, reg.Segment(), ckpt, r.Remaining())
	if applied != 200 {
		t.Fatalf("applied %d records, want 200", applied)
	}
	for off := uint32(0); off < 2*PageSize; off += 4 {
		if ckpt.Read32(off) != reg.Segment().Read32(off) {
			t.Fatalf("checkpoint differs at %#x", off)
		}
	}
}

func TestPartialRollForwardResumes(t *testing.T) {
	sys, reg, ls, p, base := buildLogged(t, 1, 8)
	ckpt := NewNamedSegment(sys, "ckpt", PageSize, nil)
	for i := uint32(0); i < 10; i++ {
		p.Store32(base+i*4, 100+i)
	}
	r := NewLogReader(sys, ls)
	if applied := rollForward(r, reg.Segment(), ckpt, 5); applied != 5 {
		t.Fatalf("applied = %d, want 5", applied)
	}
	if ckpt.Read32(16) != 104 || ckpt.Read32(20) != 0 {
		t.Fatalf("partial apply wrong: %d %d", ckpt.Read32(16), ckpt.Read32(20))
	}
	if r.Offset() != 5*logrec.Size || r.Remaining() != 5 {
		t.Fatalf("reader at %d with %d left, want %d and 5", r.Offset(), r.Remaining(), 5*logrec.Size)
	}
	// The reader resumes at the first record not applied.
	rec, ok := r.Next()
	if !ok || rec.Value != 105 {
		t.Fatalf("next after stop = %+v", rec)
	}
	// A reader sought past its end has nothing left, not 2^28 records.
	if err := r.Seek(r.End() + logrec.Size); err != nil {
		t.Fatal(err)
	}
	if n := r.Remaining(); n != 0 {
		t.Fatalf("Remaining past the end = %d, want 0", n)
	}
}

func TestTruncate(t *testing.T) {
	sys, _, ls, p, base := buildLogged(t, 1, 8)
	p.Store32(base, 1)
	r := NewLogReader(sys, ls)
	if err := r.Truncate(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("records remain after truncate")
	}
	p.Store32(base, 2)
	r.Sync()
	rec, ok := r.Next()
	if !ok || rec.Value != 2 {
		t.Fatalf("record after truncate = %+v", rec)
	}
	if r.sys.K.LogAppendOffset(ls) != logrec.Size {
		t.Fatalf("append offset after truncate+write = %d", r.sys.K.LogAppendOffset(ls))
	}
}

func TestIndexedModeStream(t *testing.T) {
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 1024})
	seg := NewStdSegment(sys, PageSize, nil)
	reg := NewStdRegion(sys, seg)
	reg.SetLogMode(ModeIndexed)
	ls := NewLogSegment(sys, 4)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, _ := reg.Bind(as, 0)
	p := sys.NewProcess(0, as)
	for i := uint32(0); i < 20; i++ {
		p.Store32(base+8*(i%100), 1000+i)
	}
	vals := ReadIndexed(sys, ls)
	if len(vals) != 20 {
		t.Fatalf("indexed values = %d, want 20", len(vals))
	}
	for i, v := range vals {
		if v != 1000+uint32(i) {
			t.Fatalf("value %d = %d", i, v)
		}
	}
}

func TestDirectModeMirrors(t *testing.T) {
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 1024})
	seg := NewStdSegment(sys, PageSize, nil)
	reg := NewStdRegion(sys, seg)
	reg.SetLogMode(ModeDirect)
	ls := NewLogSegment(sys, 1)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, _ := reg.Bind(as, 0)
	p := sys.NewProcess(0, as)
	p.Store32(base+0x40, 0xABCD1234)
	sys.Sync()
	if got := ls.Read32(0x40); got != 0xABCD1234 {
		t.Fatalf("direct-mapped mirror = %#x", got)
	}
}

func TestArenaAllocatesAndAligns(t *testing.T) {
	sys, reg, _, _, _ := buildLogged(t, 2, 4)
	_ = sys
	a, err := NewArena(reg)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := a.Alloc(10, 4)
	v2, _ := a.Alloc(16, 16)
	if v2%16 != 0 {
		t.Fatalf("alignment violated: %#x", v2)
	}
	if v2 < v1+10 {
		t.Fatalf("overlapping allocations")
	}
	if _, err := a.Alloc(3*PageSize, 4); err == nil {
		t.Fatalf("overcommit allowed")
	}
	a.Reset()
	v3, _ := a.Alloc(4, 4)
	if v3 != reg.Base() {
		t.Fatalf("reset did not rewind")
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	sys, reg, ls, p, _ := buildLogged(t, 1, 4)
	a, _ := NewArena(reg)
	m, err := NewMarker(a)
	if err != nil {
		t.Fatal(err)
	}
	objVA, _ := a.Alloc(64, 4)
	m.Write(p, 7) // virtual time 7
	p.Store32(objVA, 123)
	m.Write(p, 8)
	p.Store32(objVA+4, 456)
	r := NewLogReader(sys, ls)
	var times []uint32
	var writes int
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if m.Matches(rec) {
			times = append(times, rec.Value)
		} else {
			writes++
		}
	}
	if len(times) != 2 || times[0] != 7 || times[1] != 8 {
		t.Fatalf("marker times = %v", times)
	}
	if writes != 2 {
		t.Fatalf("object writes = %d", writes)
	}
}

func TestPropertyLogMatchesWrites(t *testing.T) {
	// Property: for any sequence of (offset, value) stores, the log
	// replays to exactly the final segment contents, and contains
	// exactly one record per store in order.
	prop := func(ops []uint16) bool {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		sys, reg, ls, p, base := buildLoggedQuick()
		for _, op := range ops {
			off := uint32(op) % (PageSize / 4) * 4
			p.Store32(base+off, uint32(op)^0x5A5A)
		}
		r := NewLogReader(sys, ls)
		if r.Remaining() != len(ops) {
			return false
		}
		replay := NewNamedSegment(sys, "replay", PageSize, nil)
		rollForward(r, reg.Segment(), replay, len(ops))
		for off := uint32(0); off < PageSize; off += 4 {
			if replay.Read32(off) != reg.Segment().Read32(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func buildLoggedQuick() (*System, *region, *Segment, *Process, Addr) {
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 2048})
	seg := NewStdSegment(sys, PageSize, nil)
	reg := newRegion(sys, seg)
	ls := NewLogSegment(sys, 32)
	if err := reg.Log(ls); err != nil {
		panic(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		panic(err)
	}
	return sys, reg, ls, sys.NewProcess(0, as), base
}

func TestSeparateProgramAddsLogging(t *testing.T) {
	// Section 2.2: "The creation of the log segment and its association
	// with an existing segment can also be performed by a separate
	// program, such as a debugger" — logging is attached after the
	// region is already bound and in use.
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 1024})
	seg := NewStdSegment(sys, PageSize, nil)
	reg := NewStdRegion(sys, seg)
	as := sys.NewAddressSpace()
	base, _ := reg.Bind(as, 0)
	p := sys.NewProcess(0, as)
	p.Store32(base, 1) // unlogged
	ls := NewLogSegment(sys, 4)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	p.Store32(base+4, 2) // logged
	r := NewLogReader(sys, ls)
	if r.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1", r.Remaining())
	}
	rec, _ := r.Next()
	if rec.Value != 2 {
		t.Fatalf("record = %+v", rec)
	}
}
