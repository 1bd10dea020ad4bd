package phys

import (
	"testing"
	"testing/quick"
)

// TestAllocHandsOutFramesLowToHigh: frames go out low-to-high from 1,
// each once, until out-of-memory. Frame order decides the logger's
// page-mapping-table conflicts.
func TestAllocHandsOutFramesLowToHigh(t *testing.T) {
	m := NewMemory(8)
	if m.numFrames != 8 {
		t.Fatalf("NumFrames = %d, want 8", m.numFrames)
	}
	for want := uint32(1); want < 8; want++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", want, err)
		}
		if f != want {
			t.Fatalf("Alloc = %d, want %d", f, want)
		}
	}
	if _, err := m.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("Alloc on full memory: err = %v, want ErrOutOfMemory", err)
	}
	if m.Allocated() != 7 || m.Free() != 0 {
		t.Fatalf("full memory: Allocated = %d, Free = %d, want 7, 0", m.Allocated(), m.Free())
	}
	// The smallest memory still has one frame to hand out.
	if m := NewMemory(0); m.Free() != 1 {
		t.Fatalf("NewMemory(0): Free = %d, want 1", m.Free())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(8)
	f1, _ := m.Alloc()
	f2, _ := m.Alloc()
	// Force f1 and f2 to be physically adjacent is not guaranteed; use a
	// single frame for the aligned case.
	base := FrameBase(f1)
	m.Write32(base+16, 0xDEADBEEF)
	if got := m.Read32(base + 16); got != 0xDEADBEEF {
		t.Fatalf("Read32 = %#x, want 0xDEADBEEF", got)
	}
	buf := []byte{1, 2, 3, 4, 5}
	m.Write(base+100, buf)
	out := make([]byte, 5)
	m.Read(base+100, out)
	for i := range buf {
		if out[i] != buf[i] {
			t.Fatalf("Read mismatch at %d: %d != %d", i, out[i], buf[i])
		}
	}
	_ = f2
}

func TestCrossPageReadWrite(t *testing.T) {
	// Allocate enough frames that two adjacent frame numbers exist.
	m := NewMemory(16)
	var fs []uint32
	for i := 0; i < 4; i++ {
		f, _ := m.Alloc()
		fs = append(fs, f)
	}
	// Find two physically adjacent frames.
	var lo uint32
	found := false
	for _, a := range fs {
		for _, b := range fs {
			if b == a+1 {
				lo, found = a, true
			}
		}
	}
	if !found {
		t.Skip("no adjacent frames allocated")
	}
	addr := FrameBase(lo) + PageSize - 2
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Fatalf("cross-page Read32 = %#x", got)
	}
}

func TestPPNAndPageBase(t *testing.T) {
	if PPN(0x1250) != 1 {
		t.Fatalf("PPN(0x1250) = %d, want 1", PPN(0x1250))
	}
	if PageBase(0x1250) != 0x1000 {
		t.Fatalf("PageBase(0x1250) = %#x, want 0x1000", PageBase(0x1250))
	}
}

func TestWrite32ReadBackProperty(t *testing.T) {
	m := NewMemory(8)
	f, _ := m.Alloc()
	base := FrameBase(f)
	prop := func(off uint16, v uint32) bool {
		o := uint32(off) % (PageSize - 4)
		m.Write32(base+o, v)
		return m.Read32(base+o) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestFrameRejectsFramesNotAllocated: frame 0 and a frame never handed
// out have no owner, so accessing one is a kernel bug.
func TestFrameRejectsFramesNotAllocated(t *testing.T) {
	m := NewMemory(8)
	m.Alloc()
	g, _ := m.Alloc()
	mustPanic(t, "Frame of a never-allocated frame", func() { m.Frame(g + 1) })
	mustPanic(t, "Read32 of a never-allocated frame", func() { m.Read32(FrameBase(g + 1)) })
	mustPanic(t, "Frame past the last frame", func() { m.Frame(8) })
	mustPanic(t, "Frame(0)", func() { m.Frame(0) })
	if m.Allocated() != 2 || m.Free() != 5 {
		t.Fatalf("Allocated = %d, Free = %d, want 2, 5", m.Allocated(), m.Free())
	}
}

// TestFramesStoreOnFirstWrite: an allocated frame reads as zeroes from
// the shared zero page until its first write gives it storage of its own
// — that frame only.
func TestFramesStoreOnFirstWrite(t *testing.T) {
	writes := map[string]func(m *Memory, f uint32){
		"Write32":      func(m *Memory, f uint32) { m.Write32(FrameBase(f)+8, 0xDEADBEEF) },
		"Write":        func(m *Memory, f uint32) { m.Write(FrameBase(f)+8, []byte{0xEF, 0xBE, 0xAD, 0xDE}) },
		"WriteBlock16": func(m *Memory, f uint32) { m.WriteBlock16(FrameBase(f), &[16]byte{8: 0xEF, 0xBE, 0xAD, 0xDE}) },
		"Frame":        func(m *Memory, f uint32) { copy(m.Frame(f)[8:], []byte{0xEF, 0xBE, 0xAD, 0xDE}) },
	}
	buf := make([]byte, PageSize)
	readsZero := func(m *Memory, f uint32) bool {
		for i := range buf {
			buf[i] = 0xEE
		}
		m.Read(FrameBase(f), buf)
		for _, b := range buf {
			if b != 0 {
				return false
			}
		}
		return m.Read32(FrameBase(f)+PageSize-4) == 0
	}
	for name, write := range writes {
		m := NewMemory(8)
		var fs [3]uint32
		for i := range fs {
			fs[i], _ = m.Alloc()
		}
		shared := func(i int) bool { return m.frames[fs[i]] == &zeroPage }
		if !shared(0) || !shared(1) || !shared(2) {
			t.Fatalf("%s: a fresh frame has storage of its own", name)
		}
		// Reads copy out of the zero page: no storage, no allocation.
		if n := testing.AllocsPerRun(10, func() { readsZero(m, fs[1]) }); n != 0 {
			t.Fatalf("%s: reading a never-written frame allocates %v times", name, n)
		}
		if !readsZero(m, fs[1]) || !shared(1) {
			t.Fatalf("%s: a read frame does not read zero from the zero page", name)
		}

		write(m, fs[1])
		if shared(1) || !shared(0) || !shared(2) {
			t.Fatalf("%s: after writing the middle frame, shared = %v %v %v", name, shared(0), shared(1), shared(2))
		}
		if got := m.Read32(FrameBase(fs[1]) + 8); got != 0xDEADBEEF {
			t.Fatalf("%s: read back %#x", name, got)
		}
		if !ZeroPageIsZero() {
			t.Fatalf("%s reached the shared zero page", name)
		}
	}
}

// TestAdoptTakesOnlyUnwrittenFrames: Adopt makes a page the storage of a
// frame never written, with no copy, and refuses a frame that has
// storage of its own.
func TestAdoptTakesOnlyUnwrittenFrames(t *testing.T) {
	m := NewMemory(4)
	fresh, err1 := m.Alloc()
	written, err2 := m.Alloc()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	m.Write32(FrameBase(written), 7)
	p := new([PageSize]byte)
	p[0] = 5
	if !m.Adopt(fresh, p) || m.Frame(fresh) != p || m.Read32(FrameBase(fresh)) != 5 {
		t.Fatal("a never-written frame did not adopt the page")
	}
	if m.Adopt(fresh, new([PageSize]byte)) || m.Frame(fresh) != p {
		t.Fatal("an adopted frame adopted a second page")
	}
	if m.Adopt(written, new([PageSize]byte)) || m.Read32(FrameBase(written)) != 7 {
		t.Fatal("a written frame adopted a page")
	}
}
