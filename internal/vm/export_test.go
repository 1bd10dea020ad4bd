package vm

import (
	"fmt"
	"math/bits"

	"lvm/internal/cycles"
	"lvm/internal/machine"
	"lvm/internal/phys"
)

// Kernel, address-space, region, process and segment operations only the
// tests drive: they set up or inspect states the simulator's programs
// never ask for.

// Kernel returns the owning kernel.
func (a *AddressSpace) Kernel() *Kernel { return a.k }

// PAddr returns the physical address backing va, faulting the page in
// (uncharged) if needed.
func (a *AddressSpace) PAddr(va Addr) (phys.Addr, error) {
	e, err := a.lookup(va, nil)
	if err != nil {
		return 0, err
	}
	return phys.FrameBase(e.seg.pages[e.segPage].frame) + va&PageMask, nil
}

// Translate resolves a virtual address without faulting; ok is false if
// the page is unmapped.
func (a *AddressSpace) Translate(va Addr) (seg *Segment, off uint32, ok bool) {
	e, found := a.pt[va>>PageShift]
	if !found {
		return nil, 0, false
	}
	return e.seg, e.segPage*PageSize + va&PageMask, true
}

// LogSegment returns the region's log segment, if logging is enabled.
func (r *Region) LogSegment() *Segment { return r.logSeg }

// SetWriteThrough forces the region's pages into write-through mode
// independent of logging (experimental control for the Section 4.5
// measurements).
func (r *Region) SetWriteThrough(wt bool) {
	r.writeThrough = wt
	if r.as != nil {
		r.as.invalidateRange(r.base, r.size)
	}
}

// Unbind removes the region's mapping from its address space.
func (r *Region) Unbind() {
	if r.as == nil {
		return
	}
	a := r.as
	npages := (r.size + PageSize - 1) / PageSize
	for p := uint32(0); p < npages; p++ {
		delete(a.pt, (r.base>>PageShift)+p)
	}
	a.flushTLB()
	for i, rr := range a.regions {
		if rr == r {
			a.regions = append(a.regions[:i], a.regions[i+1:]...)
			break
		}
	}
	r.as = nil
	r.base = 0
}

// ResetDeferredCopy undoes all modifications to deferred-copy destination
// pages in the virtual address range [start, end): for each address mapped
// in deferred-copy mode, the next read returns the datum from the
// deferred-copy source (Table 1: AddressSpace::resetDeferredCopy).
//
// Per Section 3.3, the implementation checks the per-page dirty bit to
// skip clean pages, and for dirty pages it invalidates the modified cache
// lines and re-points their sources at the source segment — no data is
// copied. The cost charged is therefore proportional to the amount of
// dirty data, which is what gives Figure 9 its shape.
func (a *AddressSpace) ResetDeferredCopy(start, end Addr, cpu *machine.CPU) (ResetStats, error) {
	var st ResetStats
	if end < start {
		return st, fmt.Errorf("vm: ResetDeferredCopy: end %#x < start %#x", end, start)
	}
	for vp := start >> PageShift; vp < (end+PageSize-1)>>PageShift; vp++ {
		e, ok := a.pt[vp]
		if !ok || e.seg.source == nil {
			continue
		}
		st.PagesScanned++
		st.Cycles += cycles.ResetPageCheckCycles
		p := &e.seg.pages[e.segPage]
		if p.frame == 0 || !p.dirty {
			continue
		}
		st.DirtyPages++
		lines := 0
		for w := range p.lineDirty {
			lines += bits.OnesCount64(p.lineDirty[w])
			p.lineDirty[w] = 0
			p.fromSource[w] = ^uint64(0)
		}
		p.dirty = false
		st.LinesReset += lines
		st.Cycles += uint64(lines) * cycles.ResetLineCycles
		if cpu != nil {
			// The processor's own cached copies of the page must go too.
			cpu.D1.InvalidatePage(uint32(vp) << PageShift)
		}
	}
	if cpu != nil {
		cpu.Compute(st.Cycles)
	}
	a.k.noteDeferredReset(cpu, st)
	return st, nil
}

// ContextSwitch installs an address space on a CPU: the on-chip cache is
// invalidated, the switch cost charged, and — on the prototype — every
// registered log of the incoming address space's regions is activated so
// the process's writes land in its own logs (per-process logs,
// Section 3.1.2 / Section 2.5: "Using a separate log per region means
// that each process can have a separate log").
func (k *Kernel) ContextSwitch(p *Process, as *AddressSpace) error {
	p.CPU.Compute(ContextSwitchCycles)
	p.CPU.D1.InvalidateAll()
	p.AS = as
	if k.Log == nil {
		return nil // on-chip logging is per virtual page: nothing to do
	}
	for _, r := range as.regions {
		if r.logSeg != nil {
			if err := k.Activate(r, p.CPU); err != nil {
				return err
			}
		}
	}
	return nil
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Load16 reads a 16-bit halfword at va.
func (p *Process) Load16(va Addr) uint16 {
	e := p.mustLookup(va, 2)
	po := va & PageMask
	paddr := phys.FrameBase(e.seg.pages[e.segPage].frame) + po
	p.CPU.WordRead(paddr)
	var b [2]byte
	e.seg.readPage(e.segPage, po, b[:])
	return uint16(b[0]) | uint16(b[1])<<8
}

// LoadBytes reads n bytes starting at va, word by word (charging each
// load).
func (p *Process) LoadBytes(va Addr, n int) []byte {
	out := make([]byte, n)
	i := 0
	for ; i+4 <= n && (va+Addr(i))%4 == 0; i += 4 {
		v := p.Load32(va + Addr(i))
		out[i] = byte(v)
		out[i+1] = byte(v >> 8)
		out[i+2] = byte(v >> 16)
		out[i+3] = byte(v >> 24)
	}
	for ; i < n; i++ {
		out[i] = p.Load8(va + Addr(i))
	}
	return out
}

// StoreBytes writes b starting at va, word by word (charging each store).
func (p *Process) StoreBytes(va Addr, b []byte) {
	i := 0
	for ; i+4 <= len(b) && (va+Addr(i))%4 == 0; i += 4 {
		p.Store32(va+Addr(i), uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16|uint32(b[i+3])<<24)
	}
	for ; i < len(b); i++ {
		p.Store8(va+Addr(i), b[i])
	}
}

// DirtyLines counts modified lines in a page.
func (s *Segment) DirtyLines(page uint32) int {
	if page >= uint32(len(s.pages)) {
		return 0
	}
	n := 0
	for _, w := range s.pages[page].lineDirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// Frame returns the physical frame of a resident page (0 if absent).
func (s *Segment) Frame(page uint32) uint32 {
	if page >= uint32(len(s.pages)) {
		return 0
	}
	return s.pages[page].frame
}

// Name returns the segment's debug name.
func (s *Segment) Name() string { return s.name }

// PageDirty reports the page's dirty bit (set by the first modifying write
// since the last resetDeferredCopy).
func (s *Segment) PageDirty(page uint32) bool {
	return page < uint32(len(s.pages)) && s.pages[page].dirty
}

// Resident reports whether a page is resident.
func (s *Segment) Resident(page uint32) bool {
	return page < uint32(len(s.pages)) && s.pages[page].frame != 0
}

// Source returns the deferred-copy source, if any.
func (s *Segment) Source() (*Segment, uint32) { return s.source, s.sourceOff }

// Active reports whether a checkpoint is in effect.
func (c *WPCheckpoint) Active() bool { return c.active }

// Close detaches the checkpointer from its segment.
func (c *WPCheckpoint) Close() {
	if c.seg != nil && c.seg.wp == c {
		c.seg.wp = nil
	}
	c.active = false
}

// Commit abandons the checkpoint, keeping the current contents: saved
// copies are discarded and protection lifted.
func (c *WPCheckpoint) Commit(cpu *machine.CPU) {
	c.saved = map[uint32][]byte{}
	for i := range c.protected {
		c.protected[i] = false
	}
	c.active = false
	_ = cpu
}

// DirtyPages reports how many pages have been modified (and saved) since
// the checkpoint.
func (c *WPCheckpoint) DirtyPages() int { return len(c.saved) }

// Load8 reads a byte at va.
func (p *Process) Load8(va Addr) uint8 {
	e := p.mustLookup(va, 1)
	po := va & PageMask
	paddr := phys.FrameBase(e.seg.pages[e.segPage].frame) + po
	p.CPU.WordRead(paddr)
	var b [1]byte
	e.seg.readPage(e.segPage, po, b[:])
	return b[0]
}

// Base returns the region's bound base virtual address (0 before Bind).
func (r *Region) Base() Addr { return r.base }

// Segment returns the mapped segment.
func (r *Region) Segment() *Segment { return r.seg }

// Size returns the region size in bytes.
func (r *Region) Size() uint32 { return r.size }
