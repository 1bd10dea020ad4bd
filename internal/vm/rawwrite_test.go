package vm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestWrite32MatchesRawWrite drives twin segments with one seeded stream of
// Write32, RawWrite, Bcopy and ResetDeferredCopySegment. Twin a takes
// Write32's word path; twin b gets every word as a 4-byte RawWrite. Both
// must agree with each other and with a byte model of the segment after
// every operation: contents, dirty lines, page dirty bits and reset stats.
func TestWrite32MatchesRawWrite(t *testing.T) {
	const pages = 4
	const size = pages * PageSize
	for _, tc := range []struct {
		name string
		// source builds the deferred-copy source and its offset (nil: a
		// plain segment).
		source func(k *Kernel, rng *rand.Rand) (*Segment, uint32)
	}{
		{"plain", func(*Kernel, *rand.Rand) (*Segment, uint32) { return nil, 0 }},
		{"source-absent", func(k *Kernel, _ *rand.Rand) (*Segment, uint32) {
			return k.NewSegment("src", size, nil), 0
		}},
		{"source-resident", func(k *Kernel, rng *rand.Rand) (*Segment, uint32) {
			return residentSource(k, rng, size), 0
		}},
		// Source lines straddle the source's page boundaries.
		{"source-unaligned", func(k *Kernel, rng *rand.Rand) (*Segment, uint32) {
			return residentSource(k, rng, size+PageSize), 8
		}},
		{"source-chained", func(k *Kernel, rng *rand.Rand) (*Segment, uint32) {
			mid := k.NewSegment("mid", size, nil)
			if err := mid.SetSourceSegment(residentSource(k, rng, size), 0); err != nil {
				t.Fatal(err)
			}
			mid.Write32(PageSize+64, 0xfeedface)
			return mid, 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			k := testKernel()
			src, srcOff := tc.source(k, rng)
			pattern := residentSource(k, rng, size)
			a := k.NewSegment("a", size, nil)
			b := k.NewSegment("b", size, nil)
			model := make([]byte, size)
			if src != nil {
				mustSource(t, a, src, srcOff)
				mustSource(t, b, src, srcOff)
				src.ReadInto(srcOff, model)
			}
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(100); {
				case r < 60:
					off := uint32(rng.Intn(size/4)) * 4
					if r < 3 {
						off = uint32(rng.Intn(size - 3)) // unaligned
					}
					v := rng.Uint32()
					a.Write32(off, v)
					w := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
					b.RawWrite(off, w)
					copy(model[off:], w)
				case r < 85:
					n := 1 + rng.Intn(3*LineSize)
					off := uint32(rng.Intn(size - n))
					w := make([]byte, n)
					rng.Read(w)
					a.RawWrite(off, w)
					b.RawWrite(off, w)
					copy(model[off:], w)
				case r < 97:
					n := uint32(1 + rng.Intn(2*PageSize))
					dst := uint32(rng.Intn(int(size - n)))
					from := uint32(rng.Intn(int(size - n)))
					for _, s := range []*Segment{a, b} {
						if err := k.Bcopy(nil, s, dst, pattern, from, n); err != nil {
							t.Fatal(err)
						}
					}
					pattern.ReadInto(from, model[dst:dst+n])
				default:
					if src == nil {
						continue
					}
					sa, err := k.ResetDeferredCopySegment(a, nil)
					if err != nil {
						t.Fatal(err)
					}
					sb, err := k.ResetDeferredCopySegment(b, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sa != sb {
						t.Fatalf("op %d: reset stats differ: %+v vs %+v", op, sa, sb)
					}
					src.ReadInto(srcOff, model)
				}
				twinsAgree(t, op, a, b, model)
			}
		})
	}
}

// residentSource is a segment of the given size with random contents in
// every other page; the rest stays non-resident.
func residentSource(k *Kernel, rng *rand.Rand, size uint32) *Segment {
	s := k.NewSegment("pattern", size, nil)
	buf := make([]byte, PageSize)
	for page := uint32(0); page < s.NumPages(); page += 2 {
		rng.Read(buf)
		s.RawWrite(page*PageSize, buf)
	}
	return s
}

func twinsAgree(t *testing.T, op int, a, b *Segment, model []byte) {
	t.Helper()
	ga, gb := make([]byte, len(model)), make([]byte, len(model))
	a.ReadInto(0, ga)
	b.ReadInto(0, gb)
	if !bytes.Equal(ga, model) || !bytes.Equal(gb, model) {
		t.Fatalf("op %d: contents differ from the model (a ok %v, b ok %v)",
			op, bytes.Equal(ga, model), bytes.Equal(gb, model))
	}
	for page := uint32(0); page < a.NumPages(); page++ {
		if a.DirtyLines(page) != b.DirtyLines(page) || a.PageDirty(page) != b.PageDirty(page) {
			t.Fatalf("op %d: page %d dirty state differs: lines %d/%d, page %v/%v", op, page,
				a.DirtyLines(page), b.DirtyLines(page), a.PageDirty(page), b.PageDirty(page))
		}
	}
}

// TestAdoptImageMatchesRawWrite: a segment that adopts an image is, field
// for field, the segment RawWrite(0, img) leaves — frame numbers and
// owners, page and line dirty state, contents — with each whole page
// whose frame held no data backed by the image itself. The cases cover a
// partial last page, a page already written before the install, a page
// resident but never written, and a deferred-copy segment, which copies.
func TestAdoptImageMatchesRawWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		size uint32
		pre  func(s *Segment)
	}{
		{"whole-pages", 3 * PageSize, nil},
		{"partial-last-page", 3*PageSize + 528, nil},
		{"written-and-resident-pages", 4*PageSize + 16, func(s *Segment) {
			s.Write32(PageSize+40, 0xABCD)
			if _, err := s.EnsureResident(2); err != nil {
				t.Fatal(err)
			}
		}},
		{"deferred-copy-source", 2*PageSize + 100, func(s *Segment) {
			src := s.k.NewSegment("source", 2*PageSize+100, nil)
			src.Write32(8, 7)
			mustSource(t, s, src, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := make([]byte, tc.size)
			rand.New(rand.NewSource(int64(tc.size))).Read(img)
			ka, kb := testKernel(), testKernel()
			a := ka.NewSegment("copied", tc.size, nil)
			b := kb.NewSegment("adopted", tc.size, nil)
			if tc.pre != nil {
				tc.pre(a)
				tc.pre(b)
			}
			a.RawWrite(0, img)
			b.AdoptImage(bytes.Clone(img))
			if ka.M.Phys.Allocated() != kb.M.Phys.Allocated() {
				t.Fatalf("frames allocated: copy %d, adopt %d", ka.M.Phys.Allocated(), kb.M.Phys.Allocated())
			}
			for page := range a.pages {
				pa, pb := &a.pages[page], &b.pages[page]
				if pa.frame != pb.frame || pa.dirty != pb.dirty || pa.lineDirty != pb.lineDirty ||
					pa.fromSource != pb.fromSource || (pa.data == nil) != (pb.data == nil) {
					t.Fatalf("page %d: copy %+v, adopt %+v", page, *pa, *pb)
				}
				oa, ob := ka.owners[pa.frame], kb.owners[pb.frame]
				if oa.seg != a || ob.seg != b || oa.page != ob.page {
					t.Fatalf("page %d: frame owners differ: %+v vs %+v", page, oa, ob)
				}
			}
			got := make([]byte, tc.size)
			b.ReadInto(0, got)
			if !bytes.Equal(got, a.RawRead(0, tc.size)) || !bytes.Equal(got, img) {
				t.Fatal("adopted contents differ from the copied ones")
			}
		})
	}
}

// TestAdoptImageAliasesFreshPages: a whole page whose frame held no data
// is the image's own bytes, not a copy; a page written before the
// install and the partial last page are copies.
func TestAdoptImageAliasesFreshPages(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("arena", 3*PageSize+8, nil)
	s.Write32(PageSize, 1)
	img := make([]byte, 3*PageSize+8)
	s.AdoptImage(img)
	for page, aliased := range []bool{true, false, true, false} {
		d := s.pages[page].data
		if got := d != nil && &d[0] == &img[page*PageSize]; got != aliased {
			t.Fatalf("page %d backed by the image: %v, want %v", page, got, aliased)
		}
	}
	img[2*PageSize] = 9
	if s.RawRead(2*PageSize, 1)[0] != 9 {
		t.Fatal("an adopted page does not read the image's bytes")
	}
}
