package core

import (
	"testing"

	"lvm/internal/logrec"
)

// TestReaderSetEndClampsToSegment: SetEnd past the log segment's size
// clamps to the size instead of letting Next read out of bounds. Crash
// recovery calls SetEnd with whatever bound survived, which may exceed
// the log that did.
func TestReaderSetEndClampsToSegment(t *testing.T) {
	sys, _, ls, p, base := buildLogged(t, 1, 2)
	p.Store32(base, 0xAA)
	r := NewLogReader(sys, ls)

	r.SetEnd(ls.Size() + 4*logrec.Size)
	if r.End() != ls.Size() {
		t.Fatalf("End = %d after oversize SetEnd, want clamp to %d", r.End(), ls.Size())
	}
	// The clamped tail is zeroes, not garbage: scanning to the clamped
	// end terminates and every record stays in bounds.
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if want := int(ls.Size() / logrec.Size); n != want {
		t.Fatalf("scanned %d records to clamped end, want %d", n, want)
	}

	// In-bounds SetEnd is taken verbatim.
	r.SetEnd(3 * logrec.Size)
	if r.End() != 3*logrec.Size {
		t.Fatalf("End = %d, want %d", r.End(), 3*logrec.Size)
	}
}

// TestReaderSeekMisaligned: Seek rejects offsets that are not a multiple
// of the record size and leaves the reader's position untouched.
func TestReaderSeekMisaligned(t *testing.T) {
	sys, _, ls, p, base := buildLogged(t, 1, 2)
	p.Store32(base, 1)
	p.Store32(base+4, 2)
	r := NewLogReader(sys, ls)
	if err := r.Seek(logrec.Size); err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint32{1, logrec.Size - 1, logrec.Size + 8} {
		if err := r.Seek(off); err == nil {
			t.Fatalf("Seek(%d) accepted a misaligned offset", off)
		}
	}
	if r.Offset() != logrec.Size {
		t.Fatalf("failed Seek moved the reader to %d", r.Offset())
	}
	if rec, ok := r.Next(); !ok || rec.Value != 2 {
		t.Fatalf("record after failed seeks = %+v ok=%v, want value 2", rec, ok)
	}
}

// TestReaderNextUnresolvable: a record whose physical frame belongs to
// no segment still decodes, but its reverse translation comes back
// empty — rec.Seg is nil and consumers must skip it rather than crash.
func TestReaderNextUnresolvable(t *testing.T) {
	sys, reg, ls, p, base := buildLogged(t, 1, 2)
	p.Store32(base+8, 0xDEAD)
	r := NewLogReader(sys, ls)

	// Point the logged record at a frame no segment owns.
	logged := logrec.Decode(ls.RawRead(0, logrec.Size))
	logged.Addr = 0xFFFF_F000 + logged.Addr&0xFFF
	var raw [logrec.Size]byte
	logged.Encode(raw[:])
	ls.RawWrite(0, raw[:])

	rec, ok := r.Next()
	if !ok {
		t.Fatal("record vanished from the log")
	}
	if rec.Value != 0xDEAD {
		t.Fatalf("raw record still decodes: value = %#x", rec.Value)
	}
	if rec.Seg != nil {
		t.Fatalf("unowned frame resolved to %v", rec.Seg)
	}
	if _, ok := rec.VAIn(reg); ok {
		t.Fatal("VAIn resolved an unresolvable record")
	}
}
