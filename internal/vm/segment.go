package vm

import (
	"fmt"

	"lvm/internal/cycles"
	"lvm/internal/hwlogger"
	"lvm/internal/phys"
)

// SegmentManager implements user-level page-fault handling for a segment
// ("The given segment manager implements user-level page-fault handling",
// Table 1). FillPage initializes the contents of a newly resident page.
type SegmentManager interface {
	FillPage(seg *Segment, page uint32, data *[PageSize]byte)
}

// ZeroFill is the default segment manager: pages appear zeroed.
type ZeroFill struct{}

// FillPage leaves the freshly allocated (already zeroed) frame untouched.
func (ZeroFill) FillPage(*Segment, uint32, *[PageSize]byte) {}

// pageInfo is the per-page metadata of a segment: residency, the page
// dirty bit used by resetDeferredCopy's fast path, and the per-line
// deferred-copy state bitmaps (256 lines per 4 KiB page).
type pageInfo struct {
	frame uint32 // 0 = not resident
	dirty bool
	// data is the frame's writable storage, cached the first time a
	// store asks phys for it (so a page only ever read stays on phys's
	// shared zero page), and nil until then. Frames are never released,
	// so it stays the frame's storage for the segment's lifetime.
	data *[PageSize]byte
	// fromSource: bit set = the line is still sourced from the
	// deferred-copy source segment (reads redirect there). Only
	// meaningful while the segment has a source.
	fromSource [LinesPerPage / 64]uint64
	// lineDirty: bit set = the line has been modified since the last
	// resetDeferredCopy (or since first residency).
	lineDirty [LinesPerPage / 64]uint64
}

// Segment is a memory segment: a virtual-memory system object that can be
// mapped to a region (Section 2.1). Log segments are segments too
// (LogSegment "is also derived from Segment", Table 1); they carry the
// extra hardware-log head state.
type Segment struct {
	k    *Kernel
	id   int
	name string
	size uint32
	mgr  SegmentManager

	pages []pageInfo

	// Deferred copy (Section 2.3): this segment appears initialized by
	// source starting at sourceOff.
	source    *Segment
	sourceOff uint32

	// wp is the optional Li/Appel-style write-protect checkpointer
	// (Section 5.1); writes to protected pages save the page first.
	wp *WPCheckpoint

	// Active logging state for data segments. The prototype logger works
	// on physical addresses (Section 3.1.2), so one log is ACTIVE per
	// segment at a time; additional registered logs take over at
	// Activate/ContextSwitch. (The on-chip kernel has no such
	// restriction: its tags are per virtual page.)
	logged   bool
	logTo    *Segment
	logIndex uint16

	// Log-segment state.
	isLog       bool
	logIdxValid bool
	// loggedRegions are the regions whose writes the on-chip logger puts
	// in this log, oldest first: its records hold virtual addresses, and
	// these resolve them.
	loggedRegions []*Region
	logMode       hwlogger.Mode
	hwPage        uint32 // page currently under the hardware head
	nextPage      uint32 // next page to hand to the hardware
	absorbing     bool
	lostRecords   uint64
	started       bool // hardware head has been initialized

	// noAbsorbLimit: offsets below this are transaction marker words, so
	// pages overlapping [0, noAbsorbLimit) get their PMT absorb-enable
	// bit cleared — their writes are absorption barriers.
	noAbsorbLimit uint32
}

// SetNoAbsorbLimit marks the first limit bytes of the segment as
// never-absorb: writes to pages overlapping the range act as write-
// absorption barriers in the hardware logger, so marker-word stores keep
// their order and multiplicity in the log. Takes effect for pages mapped
// after the call; call before binding (or re-Activate) for full coverage.
func (s *Segment) SetNoAbsorbLimit(limit uint32) { s.noAbsorbLimit = limit }

// ParallelApplySafe reports whether page-disjoint concurrent RawWrites to
// this segment are race-free once its pages are resident: there must be
// no deferred-copy source (line-sourcing state spans the segment) and no
// write-protect checkpointer (its fault hook mutates shared state).
// Partitioned parallel recovery checks this before fanning out.
func (s *Segment) ParallelApplySafe() bool { return s.source == nil && s.wp == nil }

// NewSegment creates a memory segment of the given size (rounded up to a
// whole number of pages). mgr may be nil for zero-fill.
func (k *Kernel) NewSegment(name string, size uint32, mgr SegmentManager) *Segment {
	if mgr == nil {
		mgr = ZeroFill{}
	}
	npages := (size + PageSize - 1) / PageSize
	s := &Segment{
		k:     k,
		id:    len(k.segments),
		name:  name,
		size:  npages * PageSize,
		mgr:   mgr,
		pages: make([]pageInfo, npages),
	}
	k.segments = append(k.segments, s)
	return s
}

// NewLogSegment creates a log segment with the given initial capacity in
// pages. The application extends it with Extend as the log grows
// ("the user explicitly extends the log segment, normally in advance of a
// fault at the end of the log segment", Section 3.2).
func (k *Kernel) NewLogSegment(name string, pages uint32) *Segment {
	s := k.NewSegment(name, pages*PageSize, nil)
	s.isLog = true
	return s
}

// Size returns the segment size in bytes.
func (s *Segment) Size() uint32 { return s.size }

// NumPages returns the segment size in pages.
func (s *Segment) NumPages() uint32 { return uint32(len(s.pages)) }

// IsLog reports whether this is a log segment.
func (s *Segment) IsLog() bool { return s.isLog }

// LostRecords reports how many records were absorbed and lost because the
// log segment ran out of space (Section 3.2). Call Kernel.Sync first to
// account for in-flight records.
func (s *Segment) LostRecords() uint64 {
	n := s.lostRecords
	if s.isLog && s.logIdxValid && s.absorbing {
		n += uint64(s.k.headPageOff(s) / s.recordSize())
	}
	return n
}

// recordSize is the byte granularity of one log entry for this log's mode.
func (s *Segment) recordSize() uint32 {
	if s.logMode == hwlogger.ModeIndexed {
		return 4
	}
	return 16
}

// SetSourceSegment declares source as the deferred-copy source for this
// segment starting at the given offset (Table 1: Segment::sourceSegment).
// Reads of unmodified locations return the source's data; writes affect
// only this segment.
func (s *Segment) SetSourceSegment(source *Segment, offset uint32) error {
	if s.isLog {
		return fmt.Errorf("vm: segment %q: a log segment cannot be a deferred-copy destination", s.name)
	}
	if source != nil && offset+s.size > source.size {
		return fmt.Errorf("vm: segment %q: deferred-copy source %q too small (%d+%d > %d)",
			s.name, source.name, offset, s.size, source.size)
	}
	s.source = source
	s.sourceOff = offset
	// Every already-resident page reverts to all-lines-from-source.
	for i := range s.pages {
		p := &s.pages[i]
		if p.frame != 0 {
			for j := range p.fromSource {
				p.fromSource[j] = ^uint64(0)
				p.lineDirty[j] = 0
			}
			p.dirty = false
		}
	}
	return nil
}

// Extend grows the segment by n pages, returning the new size. For log
// segments this provides the next pages for the hardware head ("the user
// explicitly extends the log segment, normally in advance of a fault at
// the end of the log segment", Section 3.2); if the log had fallen back to
// the absorb page, the head is immediately re-pointed at the new space so
// no further records are lost.
func (s *Segment) Extend(n uint32) uint32 {
	s.pages = append(s.pages, make([]pageInfo, n)...)
	s.size += n * PageSize
	if s.isLog && s.logIdxValid && s.absorbing {
		s.k.advanceLogHead(s)
	}
	return s.size
}

// ensureFrame makes the given page resident and returns its frame.
func (s *Segment) ensureFrame(page uint32) (uint32, error) {
	if page >= uint32(len(s.pages)) {
		return 0, fmt.Errorf("vm: segment %q: page %d out of range", s.name, page)
	}
	p := &s.pages[page]
	if p.frame != 0 {
		return p.frame, nil
	}
	f, err := s.k.M.Phys.Alloc()
	if err != nil {
		return 0, err
	}
	p.frame = f
	s.k.owners[f] = frameOwner{seg: s, page: page}
	if s.source != nil {
		// Deferred copy: the page begins with every line sourced.
		for j := range p.fromSource {
			p.fromSource[j] = ^uint64(0)
		}
	} else if _, zero := s.mgr.(ZeroFill); !zero {
		// ZeroFill's page is the frame as allocated; skipping the call
		// keeps a read-only page on phys's shared zero page.
		s.mgr.FillPage(s, page, s.k.M.Phys.Frame(f))
	}
	return f, nil
}

// EnsureResident makes a page resident without charging fault costs
// (pre-faulting for warmups and tools).
func (s *Segment) EnsureResident(page uint32) (uint32, error) {
	return s.ensureFrame(page)
}

// --- Data access (functional semantics, no cycle charging) ---
//
// These "raw" accessors implement the deferred-copy read/write semantics.
// Cycle costs are charged separately by the Process accessors; tools
// (log readers, checkpoint roll-forward by a separate processor, tests)
// use the raw accessors directly.

// lineIdx returns the bitmap word and bit for a line number.
func lineIdx(line uint32) (word, bit uint32) { return line / 64, line % 64 }

// readInto copies n bytes at byte offset off into dst, resolving
// deferred-copy lines. The page need not be resident: non-resident pages
// read through to the source or as zeroes.
func (s *Segment) readInto(off uint32, dst []byte) {
	for len(dst) > 0 {
		page := off >> PageShift
		po := off & PageMask
		n := PageSize - po
		if n > uint32(len(dst)) {
			n = uint32(len(dst))
		}
		s.readPage(page, po, dst[:n])
		dst = dst[n:]
		off += n
	}
}

func (s *Segment) readPage(page, po uint32, dst []byte) {
	if page >= uint32(len(s.pages)) {
		zero(dst)
		return
	}
	p := &s.pages[page]
	if p.frame == 0 {
		if s.source != nil {
			s.source.readInto(s.sourceOff+page*PageSize+po, dst)
		} else {
			zero(dst)
		}
		return
	}
	base := phys.FrameBase(p.frame)
	if s.source == nil {
		s.k.M.Phys.Read(base+po, dst)
		return
	}
	// Resolve line by line.
	for len(dst) > 0 {
		line := po >> cycles.LineShift
		lo := po & (LineSize - 1)
		n := LineSize - lo
		if n > uint32(len(dst)) {
			n = uint32(len(dst))
		}
		w, b := lineIdx(line)
		if p.fromSource[w]&(1<<b) != 0 {
			s.source.readInto(s.sourceOff+page*PageSize+po, dst[:n])
		} else {
			s.k.M.Phys.Read(base+po, dst[:n])
		}
		dst = dst[n:]
		po += n
	}
}

// writeBytes stores b at byte offset off, materializing deferred-copy
// lines as needed and maintaining dirty state. Pages are made resident on
// demand. It returns an error only on out-of-memory.
func (s *Segment) writeBytes(off uint32, b []byte) error {
	for len(b) > 0 {
		page := off >> PageShift
		po := off & PageMask
		n := PageSize - po
		if n > uint32(len(b)) {
			n = uint32(len(b))
		}
		if err := s.writePage(page, po, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		off += n
	}
	return nil
}

func (s *Segment) writePage(page, po uint32, b []byte) error {
	if s.wp != nil {
		s.wp.fault(page)
	}
	if _, err := s.ensureFrame(page); err != nil {
		return err
	}
	p := &s.pages[page]
	if p.data == nil {
		p.data = s.k.M.Phys.Frame(p.frame)
	}
	f := p.data
	p.dirty = true
	if s.source == nil {
		copy(f[po:], b)
		// Track line dirtiness anyway (cheap, used by trace tools).
		for line := po >> cycles.LineShift; line <= (po+uint32(len(b))-1)>>cycles.LineShift; line++ {
			w, bit := lineIdx(line)
			p.lineDirty[w] |= 1 << bit
		}
		return nil
	}
	// Materialize each partially written line from the source first, so
	// that its unwritten bytes keep source data. This is the second-level
	// cache's load-on-reference of Section 3.3, charged as part of the
	// normal miss costs. A line the write covers completely (Bcopy's case)
	// has nothing to keep.
	end := po + uint32(len(b))
	first := po >> cycles.LineShift
	last := (end - 1) >> cycles.LineShift
	for line := first; line <= last; line++ {
		w, bit := lineIdx(line)
		if p.fromSource[w]&(1<<bit) != 0 {
			if lo := line * LineSize; lo < po || lo+LineSize > end {
				s.fillLine(page, line, f)
			}
			p.fromSource[w] &^= 1 << bit
		}
		p.lineDirty[w] |= 1 << bit
	}
	copy(f[po:], b)
	return nil
}

// fillLine copies one line of a resident page from the deferred-copy
// source into its frame f. When the source has no source of its own and
// the line lies within one of its pages, that is a clear (source page not
// resident) or one 16-byte copy; a chained or page-straddling source line
// resolves through readInto.
func (s *Segment) fillLine(page, line uint32, f *[PageSize]byte) {
	lo := line * LineSize
	dst := f[lo : lo+LineSize]
	src := s.source
	off := s.sourceOff + page*PageSize + lo
	if sp := off >> PageShift; src.source == nil && off&PageMask <= PageSize-LineSize {
		if sp >= uint32(len(src.pages)) || src.pages[sp].frame == 0 {
			zero(dst)
		} else {
			src.k.M.Phys.Read(phys.FrameBase(src.pages[sp].frame)+(off&PageMask), dst)
		}
		return
	}
	src.readInto(off, dst)
}

// store32 is the hot-path word store used by Process.Store32 and
// Write32: it assumes p (s.pages[page]) is resident and the offset
// word-aligned, and writes through p's cached frame.
func (s *Segment) store32(p *pageInfo, page, po uint32, v uint32) {
	line := po >> cycles.LineShift
	w, bit := lineIdx(line)
	if s.wp != nil || p.data == nil || s.source != nil && p.fromSource[w]&(1<<bit) != 0 {
		s.prepareStore(p, page, line)
	}
	p.dirty = true
	p.lineDirty[w] |= 1 << bit
	b := p.data[po : po+4 : po+4]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// prepareStore does what store32 needs before a store to line of page
// (p) when there is more to do than the store: the write-protect fault,
// caching the frame, and filling a deferred-copy line from its source.
func (s *Segment) prepareStore(p *pageInfo, page, line uint32) {
	if s.wp != nil {
		s.wp.fault(page)
	}
	if p.data == nil {
		p.data = s.k.M.Phys.Frame(p.frame)
	}
	if w, bit := lineIdx(line); s.source != nil && p.fromSource[w]&(1<<bit) != 0 {
		s.fillLine(page, line, p.data)
		p.fromSource[w] &^= 1 << bit
	}
}

// load32 is the hot-path word load used by Process.Load32.
func (s *Segment) load32(page, po uint32) uint32 {
	p := &s.pages[page]
	if s.source != nil {
		w, bit := lineIdx(po >> cycles.LineShift)
		if p.fromSource[w]&(1<<bit) != 0 {
			return s.source.Read32(s.sourceOff + page*PageSize + po)
		}
	}
	return s.k.M.Phys.Read32(phys.FrameBase(p.frame) + po)
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// RawRead copies n bytes at off into a fresh slice (tool/test backdoor; no
// cycles charged).
func (s *Segment) RawRead(off, n uint32) []byte {
	b := make([]byte, n)
	s.readInto(off, b)
	return b
}

// ReadInto copies len(dst) bytes at off into dst: RawRead without the
// allocation, for callers with a reusable buffer (no cycles charged).
func (s *Segment) ReadInto(off uint32, dst []byte) {
	s.readInto(off, dst)
}

// RawWrite stores b at off without charging cycles (tool/test backdoor;
// also used by checkpoint roll-forward performed by a separate process,
// whose cost the caller accounts explicitly).
func (s *Segment) RawWrite(off uint32, b []byte) {
	if err := s.writeBytes(off, b); err != nil {
		panic(err)
	}
}

// AdoptImage stores img at offset 0 as RawWrite(0, img) does (the same
// frames, allocated in page order, the same owners and the same dirty
// and line-dirty state) but backs each whole page whose frame holds no
// data yet with that page of img itself instead of a copy; a trailing
// partial page is copied. The segment takes ownership of img: the
// caller must not use it afterwards. A segment with a deferred-copy
// source or a write-protect checkpointer copies, as RawWrite does.
func (s *Segment) AdoptImage(img []byte) {
	if s.source != nil || s.wp != nil {
		s.RawWrite(0, img)
		return
	}
	whole := uint32(len(img)) &^ PageMask
	for off := uint32(0); off < whole; off += PageSize {
		page := off >> PageShift
		if _, err := s.ensureFrame(page); err != nil {
			panic(err)
		}
		p := &s.pages[page]
		data := (*[PageSize]byte)(img[off:])
		if p.data != nil || !s.k.M.Phys.Adopt(p.frame, data) {
			s.RawWrite(off, data[:])
			continue
		}
		p.data = data
		p.dirty = true
		for w := range p.lineDirty {
			p.lineDirty[w] = ^uint64(0)
		}
	}
	s.RawWrite(whole, img[whole:])
}

// Read32 reads a little-endian word at off (raw).
func (s *Segment) Read32(off uint32) uint32 {
	var b [4]byte
	s.readInto(off, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Write32 writes a little-endian word at off (raw). An aligned in-range
// word takes store32's path; anything else goes through RawWrite.
func (s *Segment) Write32(off uint32, v uint32) {
	if page := off >> PageShift; off&3 == 0 && page < uint32(len(s.pages)) {
		if s.wp != nil {
			// Save the page as RawWrite would: before it becomes resident.
			s.wp.fault(page)
		}
		if _, err := s.ensureFrame(page); err != nil {
			panic(err)
		}
		s.store32(&s.pages[page], page, off&PageMask, v)
		return
	}
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	s.RawWrite(off, b[:])
}
