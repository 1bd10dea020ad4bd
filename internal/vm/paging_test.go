package vm

import (
	"testing"
)

// memStore is a PageStore keeping evicted pages in a map.
type memStore struct {
	pages map[uint32][PageSize]byte
}

func newMemStore() *memStore { return &memStore{pages: map[uint32][PageSize]byte{}} }

func (m *memStore) FillPage(_ *Segment, page uint32, data *[PageSize]byte) {
	if saved, ok := m.pages[page]; ok {
		*data = saved
	}
}

func (m *memStore) StorePage(_ *Segment, page uint32, data *[PageSize]byte) {
	m.pages[page] = *data
}

func TestEvictAndRefaultPreservesData(t *testing.T) {
	k := testKernel()
	store := newMemStore()
	s := k.NewSegment("paged", 4*PageSize, store)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	p.Store32(base+8, 1234)
	frames := len(k.owners)
	if err := k.evictPage(s, 0); err != nil {
		t.Fatal(err)
	}
	if len(k.owners) != frames-1 {
		t.Fatalf("frame not released")
	}
	if s.Resident(0) {
		t.Fatalf("page still resident")
	}
	// The next access re-faults and reads the stored contents.
	if got := p.Load32(base + 8); got != 1234 {
		t.Fatalf("after refault = %d", got)
	}
}

func TestEvictWithoutStoreLosesData(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("volatile", PageSize, nil) // zero-fill manager
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	p.Store32(base, 7)
	if err := k.evictPage(s, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.Load32(base); got != 0 {
		t.Fatalf("zero-fill refault = %d", got)
	}
}

func TestEvictLoggedPageReloadsPMT(t *testing.T) {
	k := testKernel()
	store := newMemStore()
	s := k.NewSegment("data", PageSize, store)
	ls := k.NewLogSegment("log", 4)
	r := k.NewRegion(s)
	if err := r.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	p.Store32(base, 1)
	k.Sync()
	if err := k.evictPage(s, 0); err != nil {
		t.Fatal(err)
	}
	// After refault, logging continues into the same log.
	p.Store32(base+4, 2)
	k.Sync()
	if got := k.LogAppendOffset(ls) / 16; got != 2 {
		t.Fatalf("records = %d, want 2", got)
	}
	if s.Read32(0) != 1 || s.Read32(4) != 2 {
		t.Fatalf("data lost across eviction")
	}
}

func TestEvictDeferredCopyDestinationRejected(t *testing.T) {
	k := testKernel()
	src := k.NewSegment("src", PageSize, nil)
	dst := k.NewSegment("dst", PageSize, nil)
	mustSource(t, dst, src, 0)
	dst.Write32(0, 1)
	if err := k.evictPage(dst, 0); err == nil {
		t.Fatalf("evicted a deferred-copy destination")
	}
}

func TestEvictActiveLogHeadRejected(t *testing.T) {
	k := testKernel()
	_, _, ls, p, base := setupLogged(t, k, 1, 4)
	p.Store32(base, 1)
	k.Sync()
	if err := k.evictPage(ls, 0); err == nil {
		t.Fatalf("evicted the active log head page")
	}
}

func TestReclaimFrames(t *testing.T) {
	k := testKernel()
	store := newMemStore()
	s := k.NewSegment("big", 8*PageSize, store)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	for i := uint32(0); i < 8; i++ {
		p.Store32(base+i*PageSize, i)
	}
	if got := k.ReclaimFrames(3); got != 3 {
		t.Fatalf("reclaimed %d, want 3", got)
	}
	if k.Evictions != 3 {
		t.Fatalf("evictions = %d", k.Evictions)
	}
	// Everything still readable.
	for i := uint32(0); i < 8; i++ {
		if got := p.Load32(base + i*PageSize); got != i {
			t.Fatalf("page %d = %d", i, got)
		}
	}
}

func TestEvictInvalidatesAllMappings(t *testing.T) {
	k := testKernel()
	store := newMemStore()
	s := k.NewSegment("shared", PageSize, store)
	r1 := k.NewRegion(s)
	r2 := k.NewRegion(s)
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	b1, _ := r1.Bind(as1, 0)
	b2, _ := r2.Bind(as2, 0)
	p1 := k.NewProcess(0, as1)
	p2 := k.NewProcess(1, as2)
	p1.Store32(b1, 5)
	if got := p2.Load32(b2); got != 5 {
		t.Fatalf("sharing broken")
	}
	if err := k.evictPage(s, 0); err != nil {
		t.Fatal(err)
	}
	// Both mappings must re-fault onto the (possibly new) frame and see
	// the stored data.
	if got := p2.Load32(b2); got != 5 {
		t.Fatalf("as2 after evict = %d", got)
	}
	p2.Store32(b2, 6)
	if got := p1.Load32(b1); got != 6 {
		t.Fatalf("as1 after evict = %d", got)
	}
}

// TestReleasedFrameNotWrittenThroughCache: a store writes through its
// page's cached frame storage, and phys hands a released frame's storage
// to the next frame it allocates. Once page A's frame is released
// (evicted or freed) and that storage backs page B, a store to A must
// fault A into a frame of its own and leave B's bytes alone.
func TestReleasedFrameNotWrittenThroughCache(t *testing.T) {
	for _, release := range []string{"evict", "free"} {
		t.Run(release, func(t *testing.T) {
			k := testKernel()
			a := k.NewSegment("a", PageSize, nil)
			r := k.NewRegion(a)
			as := k.NewAddressSpace()
			base, _ := r.Bind(as, 0)
			p := k.NewProcess(0, as)
			p.Store32(base+8, 1) // caches A's frame storage
			old := a.Frame(0)
			switch release {
			case "evict":
				if err := k.evictPage(a, 0); err != nil {
					t.Fatal(err)
				}
			case "free":
				a.free()
			}
			b := k.NewSegment("b", PageSize, nil)
			b.Write32(8, 0xB0B0)
			if b.Frame(0) != old {
				t.Fatalf("B got frame %d, want A's released frame %d", b.Frame(0), old)
			}
			if release == "free" {
				// free leaves A's mappings resident: drop them so the
				// store below re-faults.
				as.invalidateRange(base, PageSize)
			}
			p.Store32(base+8, 2) // re-faults A into a new frame
			if got := b.Read32(8); got != 0xB0B0 {
				t.Fatalf("B's word = %#x after a store to A, want 0xb0b0", got)
			}
			if a.Frame(0) == old || a.Read32(8) != 2 {
				t.Fatalf("A: frame %d (released %d), word %d; want a new frame holding 2", a.Frame(0), old, a.Read32(8))
			}
			if got := p.Load32(base + 8); got != 2 {
				t.Fatalf("A loads %d, want 2", got)
			}
		})
	}
}
