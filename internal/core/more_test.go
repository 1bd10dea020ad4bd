package core

import (
	"testing"

	"lvm/internal/logrec"
)

// TestLogSegmentMappedIntoAddressSpace: "The log segment may also be
// mapped into the address space, so that the same (or a different)
// application can read the log records" (Section 2.1). A region is bound
// over the log segment itself and the records read back with ordinary
// loads.
func TestLogSegmentMappedIntoAddressSpace(t *testing.T) {
	sys, _, ls, p, base := buildLogged(t, 1, 4)
	p.Store32(base+0x10, 0xABCD)
	p.Store32(base+0x14, 0x1234)
	sys.Sync()

	logReg := NewStdRegion(sys, ls)
	logBase, err := logReg.Bind(p.AS, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Record 1 starts at byte 16: addr, value, size+cpu, timestamp.
	if got := p.Load32(logBase + logrec.Size + 4); got != 0x1234 {
		t.Fatalf("mapped log read value = %#x", got)
	}
	if got := p.Load32(logBase+logrec.Size+8) & 0xFFFF; got != 4 {
		t.Fatalf("mapped log read size = %d", got)
	}
}

func TestSeparateProcessReadsLog(t *testing.T) {
	// A different process on a different CPU with its own address space
	// consumes the log (the output-offload arrangement of Section 2.6).
	sys, _, ls, p, base := buildLogged(t, 1, 4)
	for i := uint32(0); i < 10; i++ {
		p.Store32(base+i*4, 100+i)
	}
	consumerAS := sys.NewAddressSpace()
	consumer := sys.NewProcess(1, consumerAS)
	logReg := NewStdRegion(sys, ls)
	logBase, err := logReg.Bind(consumerAS, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.Sync()
	var sum uint32
	for i := uint32(0); i < 10; i++ {
		sum += consumer.Load32(logBase + i*logrec.Size + 4)
	}
	if sum != 10*100+45 {
		t.Fatalf("consumer sum = %d", sum)
	}
}

func TestOutOfMemoryErrors(t *testing.T) {
	// 8 frames: 1 reserved + 1 absorb leaves 6 allocatable.
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 8})
	seg := NewStdSegment(sys, 16*PageSize, nil)
	for i := uint32(0); i < 16; i++ {
		if _, err := seg.EnsureResident(i); err != nil {
			return // expected: ran out of frames
		}
	}
	t.Fatalf("allocated 16 pages from 6 frames")
}

func TestStorePanicsOnOOM(t *testing.T) {
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 4})
	seg := NewStdSegment(sys, 8*PageSize, nil)
	reg := NewStdRegion(sys, seg)
	as := sys.NewAddressSpace()
	base, _ := reg.Bind(as, 0)
	p := sys.NewProcess(0, as)
	defer func() {
		if recover() == nil {
			t.Fatalf("stores beyond physical memory did not panic")
		}
	}()
	for i := uint32(0); i < 8; i++ {
		p.Store32(base+i*PageSize, i)
	}
}

func TestReaderSeekValidation(t *testing.T) {
	sys, _, ls, _, _ := buildLogged(t, 1, 4)
	r := NewLogReader(sys, ls)
	if err := r.Seek(7); err == nil {
		t.Fatalf("unaligned seek accepted")
	}
	if err := r.Seek(logrec.Size * 2); err != nil {
		t.Fatal(err)
	}
}

func TestRecordVAInWrongRegion(t *testing.T) {
	sys, reg, ls, p, base := buildLogged(t, 1, 4)
	other := newRegion(sys, NewStdSegment(sys, PageSize, nil))
	if _, err := other.Bind(p.AS, 0); err != nil {
		t.Fatal(err)
	}
	p.Store32(base, 1)
	r := NewLogReader(sys, ls)
	rec, _ := r.Next()
	if _, ok := rec.VAIn(other); ok {
		t.Fatalf("VAIn resolved against an unrelated region")
	}
	if va, ok := rec.VAIn(reg); !ok || va != base {
		t.Fatalf("VAIn = %#x %v", va, ok)
	}
}

func TestSystemElapsedAndSync(t *testing.T) {
	sys, _, _, p, base := buildLogged(t, 1, 4)
	p.Compute(1000)
	if sys.Elapsed() < 1000 {
		t.Fatalf("Elapsed = %d", sys.Elapsed())
	}
	p.Store32(base, 1)
	idle := sys.Sync()
	if idle < sys.Elapsed() {
		t.Fatalf("Sync idle time %d before CPU time %d", idle, sys.Elapsed())
	}
}

func TestDeterministicExperimentOutputs(t *testing.T) {
	// The whole simulator is deterministic: identical runs, identical
	// cycle counts.
	a, _, _, pa, ba := buildLogged(t, 1, 8)
	b, _, _, pb, bb := buildLogged(t, 1, 8)
	for i := uint32(0); i < 200; i++ {
		pa.Compute(37)
		pa.Store32(ba+(i%512)*4, i)
		pb.Compute(37)
		pb.Store32(bb+(i%512)*4, i)
	}
	if a.Elapsed() != b.Elapsed() {
		t.Fatalf("nondeterministic: %d vs %d", a.Elapsed(), b.Elapsed())
	}
	if a.Sync() != b.Sync() {
		t.Fatalf("nondeterministic drain")
	}
}

func TestArenaMarkerExhaustion(t *testing.T) {
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 1024})
	seg := NewStdSegment(sys, PageSize, nil)
	reg := newRegion(sys, seg)
	as := sys.NewAddressSpace()
	if _, err := NewArena(reg); err == nil {
		t.Fatalf("arena over unbound region accepted")
	}
	if _, err := reg.Bind(as, 0); err != nil {
		t.Fatal(err)
	}
	a, err := NewArena(reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(PageSize, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMarker(a); err == nil {
		t.Fatalf("marker allocated from an exhausted arena")
	}
}

func TestReadIndexedEmpty(t *testing.T) {
	sys := NewSystem(Config{NumCPUs: 1, MemFrames: 1024})
	ls := NewLogSegment(sys, 2)
	if vals := ReadIndexed(sys, ls); len(vals) != 0 {
		t.Fatalf("empty indexed log returned %d values", len(vals))
	}
}
