package phys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocReleaseCycle(t *testing.T) {
	m := NewMemory(8)
	if m.numFrames != 8 {
		t.Fatalf("NumFrames = %d, want 8", m.numFrames)
	}
	seen := map[uint32]bool{}
	var frames []uint32
	for i := 0; i < 7; i++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if f == 0 {
			t.Fatalf("Alloc returned reserved frame 0")
		}
		if seen[f] {
			t.Fatalf("Alloc returned duplicate frame %d", f)
		}
		seen[f] = true
		frames = append(frames, f)
	}
	if _, err := m.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("Alloc on full memory: err = %v, want ErrOutOfMemory", err)
	}
	m.Release(frames[3])
	f, err := m.Alloc()
	if err != nil {
		t.Fatalf("Alloc after release: %v", err)
	}
	if f != frames[3] {
		t.Fatalf("Alloc after release = %d, want %d", f, frames[3])
	}
}

func TestAllocZeroesRecycledFrames(t *testing.T) {
	m := NewMemory(4)
	f, _ := m.Alloc()
	m.Frame(f)[123] = 0xAB
	m.Release(f)
	g, _ := m.Alloc()
	for g != f {
		// Drain until we get the same frame back.
		var err error
		g, err = m.Alloc()
		if err != nil {
			t.Fatalf("never got frame %d back", f)
		}
	}
	if m.Frame(g)[123] != 0 {
		t.Fatalf("recycled frame not zeroed")
	}
}

func TestReleaseInvalidPanics(t *testing.T) {
	m := NewMemory(4)
	defer func() {
		if recover() == nil {
			t.Fatalf("Release(0) did not panic")
		}
	}()
	m.Release(0)
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

// TestReleaseAndFrameRejectFramesNotInUse: a frame that was never handed
// out, or was already released, has no owner — releasing it again would
// put it on the free list twice (two later owners of one frame), and
// reading it would be a use after free.
func TestReleaseAndFrameRejectFramesNotInUse(t *testing.T) {
	m := NewMemory(8)
	f, _ := m.Alloc()
	g, _ := m.Alloc()
	mustPanic(t, "Release of a never-allocated frame", func() { m.Release(g + 1) })
	mustPanic(t, "Frame of a never-allocated frame", func() { m.Frame(g + 1) })
	mustPanic(t, "Release past the last frame", func() { m.Release(8) })
	mustPanic(t, "Frame(0)", func() { m.Frame(0) })

	m.Release(f)
	mustPanic(t, "second Release of one frame", func() { m.Release(f) })
	mustPanic(t, "Frame of a released frame", func() { m.Frame(f) })
	mustPanic(t, "Read32 of a released frame", func() { m.Read32(FrameBase(f)) })
	if m.Allocated() != 1 || m.Free() != 6 {
		t.Fatalf("after rejected releases: Allocated = %d, Free = %d, want 1, 6", m.Allocated(), m.Free())
	}
	// The frame has one slot on the free list: it comes back once.
	if h, _ := m.Alloc(); h != f {
		t.Fatalf("Alloc after release = %d, want %d", h, f)
	}
	if h, _ := m.Alloc(); h == f {
		t.Fatalf("frame %d handed to two owners", f)
	}
}

// freeListModel is the allocator phys had before its tables went
// on-demand: every frame on an explicit free list, highest first, popped
// from the end. Memory must hand out the same frame numbers as it does —
// the logger's page-mapping table is direct-mapped on them.
type freeListModel struct {
	free      []uint32
	allocated int
}

func newFreeListModel(numFrames int) *freeListModel {
	if numFrames < 2 {
		numFrames = 2
	}
	r := &freeListModel{}
	for f := numFrames - 1; f >= 1; f-- {
		r.free = append(r.free, uint32(f))
	}
	return r
}

func (r *freeListModel) alloc() (uint32, bool) {
	if len(r.free) == 0 {
		return 0, false
	}
	f := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.allocated++
	return f, true
}

func (r *freeListModel) release(f uint32) {
	r.allocated--
	r.free = append(r.free, f)
}

func TestAllocatorMatchesFreeListModel(t *testing.T) {
	for _, numFrames := range []int{0, 2, 3, 7, 100, 1000} {
		m, ref := NewMemory(numFrames), newFreeListModel(numFrames)
		if m.numFrames != len(ref.free)+1 {
			t.Fatalf("numFrames %d: NumFrames = %d, want %d", numFrames, m.numFrames, len(ref.free)+1)
		}
		rng := rand.New(rand.NewSource(int64(numFrames) + 1))
		var held []uint32
		ooms := 0
		for step := 0; step < 100_000; step++ {
			// Lean towards Alloc so the run reaches out-of-memory, then
			// away from it so it also drains.
			allocBias := 6
			if step/10_000%2 == 1 {
				allocBias = 3
			}
			if len(held) == 0 || rng.Intn(10) < allocBias {
				want, ok := ref.alloc()
				got, err := m.Alloc()
				if (err == nil) != ok || (err != nil && err != ErrOutOfMemory) {
					t.Fatalf("numFrames %d step %d: Alloc err = %v, model ok = %v", numFrames, step, err, ok)
				}
				if !ok {
					ooms++
				} else {
					if got != want {
						t.Fatalf("numFrames %d step %d: Alloc = %d, model %d", numFrames, step, got, want)
					}
					page := m.Frame(got)
					if page[0] != 0 || page[PageSize-1] != 0 {
						t.Fatalf("numFrames %d step %d: frame %d not zeroed", numFrames, step, got)
					}
					page[0], page[PageSize-1] = 0xAB, 0xCD
					held = append(held, got)
				}
			} else {
				i := rng.Intn(len(held))
				f := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				ref.release(f)
				m.Release(f)
			}
			if m.Free() != len(ref.free) || m.Allocated() != ref.allocated {
				t.Fatalf("numFrames %d step %d: Free, Allocated = %d, %d; model %d, %d",
					numFrames, step, m.Free(), m.Allocated(), len(ref.free), ref.allocated)
			}
		}
		if ooms == 0 {
			t.Fatalf("numFrames %d: the run never reached out-of-memory", numFrames)
		}
	}
}

// TestFramesStoreOnFirstWrite: an allocated frame reads as zeroes from
// the shared zero page until its first write gives it storage of its own
// — that frame only — and a written frame released and allocated again
// reads zero while keeping its storage.
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

		page := m.frames[fs[1]]
		m.Release(fs[1])
		if g, _ := m.Alloc(); g != fs[1] || m.frames[g] != page {
			t.Fatalf("%s: Alloc after Release = %d (own storage kept: %v), want %d", name, g, m.frames[g] == page, fs[1])
		}
		if !readsZero(m, fs[1]) {
			t.Fatalf("%s: a written frame reallocated does not read zero", name)
		}

		// A never-written frame goes round Release/Alloc on the zero page.
		m.Release(fs[2])
		if g, _ := m.Alloc(); g != fs[2] || !shared(2) {
			t.Fatalf("%s: never-written frame %d came back as %d, shared %v", name, fs[2], g, shared(2))
		}
	}
}
