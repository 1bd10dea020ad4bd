package core

import "fmt"

// The tests' allocation helpers: a region that remembers where it was
// bound, an arena and its marker words, and a record's address as seen
// through a region.

// region is a StdRegion that keeps its segment, size and bound base,
// which a program keeps from its own calls.
type region struct {
	*Region
	seg  *Segment
	base Addr
}

func newRegion(sys *System, seg *Segment) *region {
	return &region{Region: NewStdRegion(sys, seg), seg: seg}
}

// Bind binds the region and records its base.
func (r *region) Bind(as *AddressSpace, va Addr) (Addr, error) {
	base, err := r.Region.Bind(as, va)
	if err == nil {
		r.base = base
	}
	return base, err
}

func (r *region) Segment() *Segment { return r.seg }
func (r *region) Base() Addr        { return r.base }
func (r *region) Size() uint32      { return r.seg.Size() }

// Arena is a bump allocator over a bound region: the mechanism behind the
// paper's recommendation that applications "place each object in the right
// region" and give classes overloaded new operators choosing a logged or
// unlogged region (Section 2.7). Objects allocated from an arena over a
// logged region are logged; the same type allocated from an arena over an
// unlogged region is not.
type Arena struct {
	r    *region
	next Addr
}

// NewArena creates an allocator over a bound region.
func NewArena(r *region) (*Arena, error) {
	if r.Base() == 0 {
		return nil, fmt.Errorf("core: arena over unbound region")
	}
	return &Arena{r: r, next: r.Base()}, nil
}

// Alloc reserves size bytes with the given alignment (a power of two) and
// returns the virtual address.
func (a *Arena) Alloc(size, align uint32) (Addr, error) {
	if align == 0 {
		align = 4
	}
	va := (a.next + align - 1) &^ (align - 1)
	if va+size > a.r.Base()+a.r.Size() {
		return 0, fmt.Errorf("core: arena exhausted (%d bytes requested)", size)
	}
	a.next = va + size
	return va, nil
}

// Reset makes the whole region available again.
func (a *Arena) Reset() { a.next = a.r.Base() }

// Marker is a reserved logged word whose writes delimit points in the log:
// the paper's applications write local virtual time (Section 2.4, footnote
// 2) or a transaction identifier (Section 2.5) to such a location so log
// consumers can attribute records.
type Marker struct {
	Seg    *Segment
	SegOff uint32
	VA     Addr
}

// NewMarker allocates a marker word from an arena over a logged region.
func NewMarker(a *Arena) (Marker, error) {
	va, err := a.Alloc(4, 4)
	if err != nil {
		return Marker{}, err
	}
	return Marker{Seg: a.r.Segment(), SegOff: va - a.r.Base(), VA: va}, nil
}

// Write stores v to the marker location through p, producing a marker
// record in the log.
func (m Marker) Write(p *Process, v uint32) { p.Store32(m.VA, v) }

// Matches reports whether a log record is a write of this marker.
func (m Marker) Matches(rec Record) bool {
	return rec.Seg == m.Seg && rec.SegOff == m.SegOff
}

// VAIn returns the virtual address of the write as seen through region r
// (which must map Record.Seg), ok=false otherwise.
func (rec Record) VAIn(r *region) (Addr, bool) {
	if rec.Seg == nil || r.Segment() != rec.Seg || rec.SegOff >= r.Size() {
		return 0, false
	}
	return r.Base() + rec.SegOff, true
}
