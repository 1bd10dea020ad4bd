package core

import (
	"testing"
)

func buildOnChipLogged(t *testing.T, segPages, logPages uint32) (*System, *region, *Segment, *Process, Addr) {
	t.Helper()
	sys := NewSystemOnChip(Config{NumCPUs: 2, MemFrames: 2048})
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

func TestOnChipLogReaderResolvesVirtual(t *testing.T) {
	sys, reg, ls, p, base := buildOnChipLogged(t, 1, 4)
	p.Store32(base+0x30, 99)
	r := NewLogReader(sys, ls)
	rec, ok := r.Next()
	if !ok {
		t.Fatalf("no record")
	}
	// The raw address is virtual (Section 4.6)...
	if rec.Addr != base+0x30 {
		t.Fatalf("record addr = %#x, want %#x", rec.Addr, base+0x30)
	}
	// ...and resolution lands on the right segment offset.
	if rec.Seg != reg.Segment() || rec.SegOff != 0x30 {
		t.Fatalf("resolution: %v +%#x", rec.Seg, rec.SegOff)
	}
	if va, ok := rec.VAIn(reg); !ok || va != base+0x30 {
		t.Fatalf("VAIn = %#x, %v", va, ok)
	}
}

func TestOnChipApplyRollsForward(t *testing.T) {
	sys, reg, ls, p, base := buildOnChipLogged(t, 2, 16)
	ckpt := NewNamedSegment(sys, "ckpt", 2*PageSize, nil)
	for i := uint32(0); i < 150; i++ {
		p.Store32(base+(i*20)%(2*PageSize), i)
	}
	r := NewLogReader(sys, ls)
	if n := rollForward(r, reg.Segment(), ckpt, r.Remaining()); n != 150 {
		t.Fatalf("applied %d", n)
	}
	for off := uint32(0); off < 2*PageSize; off += 4 {
		if ckpt.Read32(off) != reg.Segment().Read32(off) {
			t.Fatalf("mismatch at %#x", off)
		}
	}
}

func TestOnChipMarkers(t *testing.T) {
	sys, reg, ls, p, _ := buildOnChipLogged(t, 1, 4)
	a, _ := NewArena(reg)
	m, err := NewMarker(a)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := a.Alloc(32, 4)
	m.Write(p, 5)
	p.Store32(obj, 1)
	m.Write(p, 6)
	r := NewLogReader(sys, ls)
	var times []uint32
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if m.Matches(rec) {
			times = append(times, rec.Value)
		}
	}
	if len(times) != 2 || times[0] != 5 || times[1] != 6 {
		t.Fatalf("marker times = %v", times)
	}
	_ = sys
}

func TestOnChipTruncate(t *testing.T) {
	sys, _, ls, p, base := buildOnChipLogged(t, 1, 4)
	p.Store32(base, 1)
	r := NewLogReader(sys, ls)
	if err := r.Truncate(); err != nil {
		t.Fatal(err)
	}
	p.Store32(base, 2)
	r.Sync()
	rec, ok := r.Next()
	if !ok || rec.Value != 2 {
		t.Fatalf("after truncate: %+v %v", rec, ok)
	}
}
