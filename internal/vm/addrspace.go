package vm

import (
	"fmt"

	"lvm/internal/cycles"
	"lvm/internal/hwlogger"
	"lvm/internal/metrics"
)

// PTE is a software page-table entry: one mapped virtual page.
type pte struct {
	region  *Region
	seg     *Segment
	segPage uint32
	// resident means the frame is present AND, for logged pages, the
	// logger tables were loaded and the page is in write-through mode.
	resident     bool
	writeThrough bool
	logged       bool
}

// AddressSpace is a 32-bit virtual address space with 4 KiB pages.
type AddressSpace struct {
	k       *Kernel
	pt      map[uint32]*pte
	regions []*Region
	nextVA  Addr

	// lastBase/lastPTE is a one-entry software TLB for the hot path:
	// lastPTE is resident and maps the page at virtual address lastBase.
	// Empty, lastBase is noPage, which no page address equals, so the
	// hit test needs no nil or residency check.
	lastBase Addr
	lastPTE  *pte
}

// noPage is an empty software TLB's lastBase: its offset bits are set,
// and a page address has none.
const noPage Addr = PageMask

// flushTLB empties the one-entry software TLB. Every path that makes a
// PTE non-resident calls it.
func (a *AddressSpace) flushTLB() { a.lastBase, a.lastPTE = noPage, nil }

// NewAddressSpace creates an empty address space. Each address space gets
// a distinct default allocation base so that kernel-chosen bindings in
// different address spaces occupy disjoint virtual ranges — the on-chip
// logger's extended TLB (Section 4.6) is modeled without address-space
// identifiers, so per-region log tags are keyed by virtual page number
// alone.
func (k *Kernel) NewAddressSpace() *AddressSpace {
	as := &AddressSpace{
		k:        k,
		pt:       make(map[uint32]*pte),
		nextVA:   0x1000_0000 + uint32(k.addressSpaces)*0x0800_0000,
		lastBase: noPage,
	}
	k.addressSpaces++
	k.asList = append(k.asList, as)
	return as
}

// Region represents a mapping of a segment into an address space
// (Section 2.1). A region becomes active when bound. Logging is specified
// at the region level (Region::log, Table 1); once enabled it stays on.
type Region struct {
	seg    *Segment
	logSeg *Segment
	mode   hwlogger.Mode

	as   *AddressSpace
	base Addr
	size uint32

	// writeThrough forces write-through mode even without logging (used
	// by experiments isolating the write-through cost).
	writeThrough bool
}

// NewRegion creates a region over the whole segment (StdRegion, Table 1).
func (k *Kernel) NewRegion(seg *Segment) *Region {
	return &Region{seg: seg, size: seg.size, mode: hwlogger.ModeRecord}
}

// SetLogMode selects the logging mode (record, direct-mapped or indexed;
// Section 2.6). It must be called before Log.
func (r *Region) SetLogMode(m hwlogger.Mode) { r.mode = m }

// Log declares ls as the log segment for this region: "Log records for all
// writes to region this appear in ls" (Table 1). It may be called before
// or after Bind, and by a separate program such as a debugger
// (Section 2.2). The prototype supports a single logged region per segment
// (Section 3.1.2); enabling logging on a second region of the same segment
// fails.
func (r *Region) Log(ls *Segment) error {
	if !ls.isLog {
		return fmt.Errorf("vm: Log: %q is not a log segment", ls.name)
	}
	k := r.seg.k
	if r.logSeg != nil {
		return fmt.Errorf("vm: region already logged")
	}
	if k.Chip != nil {
		// Section 4.6 hardware: per-region logging, no per-segment
		// restriction.
		return k.logOnChip(r, ls)
	}
	if k.Log == nil {
		return fmt.Errorf("vm: no logger hardware attached")
	}
	if !ls.logIdxValid {
		idx, err := k.allocLogIndex()
		if err != nil {
			return err
		}
		ls.logIndex = idx
		ls.logIdxValid = true
		ls.logMode = r.mode
	}
	r.logSeg = ls
	if r.seg.logged {
		// Another region's log is currently active for this segment: the
		// bus logger maps physical pages, so this registration takes
		// effect at the next Activate/ContextSwitch (Section 3.1.2's
		// per-process logs via context switching).
		return nil
	}
	return k.Activate(r, nil)
}

// Bind maps the region into the address space at virtaddr (0 = let the
// kernel choose), returning the bound address (Table 1: Region::bind).
func (r *Region) Bind(a *AddressSpace, virtaddr Addr) (Addr, error) {
	if r.as != nil {
		return 0, fmt.Errorf("vm: region already bound")
	}
	if virtaddr == 0 {
		virtaddr = a.nextVA
		a.nextVA += (r.size + PageSize - 1) &^ uint32(PageMask)
		a.nextVA += PageSize // guard page
	}
	if virtaddr&PageMask != 0 {
		return 0, fmt.Errorf("vm: bind address %#x not page aligned", virtaddr)
	}
	npages := (r.size + PageSize - 1) / PageSize
	for p := uint32(0); p < npages; p++ {
		vp := (virtaddr >> PageShift) + p
		if _, exists := a.pt[vp]; exists {
			return 0, fmt.Errorf("vm: bind overlaps existing mapping at %#x", vp<<PageShift)
		}
	}
	for p := uint32(0); p < npages; p++ {
		vp := (virtaddr >> PageShift) + p
		a.pt[vp] = &pte{region: r, seg: r.seg, segPage: p}
	}
	r.as = a
	r.base = virtaddr
	a.regions = append(a.regions, r)
	if r.logSeg != nil && a.k.Chip != nil {
		r.mapChipPages()
	}
	return virtaddr, nil
}

// invalidateRange forces the pages of [base, base+size) to re-fault.
func (a *AddressSpace) invalidateRange(base Addr, size uint32) {
	npages := (size + PageSize - 1) / PageSize
	for p := uint32(0); p < npages; p++ {
		if e, ok := a.pt[(base>>PageShift)+p]; ok {
			e.resident = false
			e.writeThrough = false
			e.logged = false
		}
	}
	a.flushTLB()
}

// lookup returns the PTE for va, handling the page fault if needed; the
// fault cost is charged to cpu.
func (a *AddressSpace) lookup(va Addr, cpu *machineCPU) (*pte, error) {
	vp := va >> PageShift
	if a.lastBase == va&^PageMask {
		return a.lastPTE, nil
	}
	e, found := a.pt[vp]
	if !found {
		return nil, fmt.Errorf("vm: fault: unmapped address %#x", va)
	}
	if !e.resident {
		if err := a.k.pageFault(e, cpu); err != nil {
			return nil, err
		}
	}
	a.lastBase = va &^ PageMask
	a.lastPTE = e
	return e, nil
}

// pageFault implements the page-fault path of Section 3.2: normal fault
// handling (frame allocation and data arrival), then for logged regions:
// write-through mode for the page, a log-table entry if missing, and a
// page-mapping-table entry mapping the page's physical address to the
// log's index.
func (k *Kernel) pageFault(e *pte, cpu *machineCPU) error {
	k.PageFaults++
	k.kshard(cpu).Inc(metrics.VMPageFaults)
	if cpu != nil {
		cpu.Compute(cycles.PageFaultCycles)
	}
	if _, err := e.seg.ensureFrame(e.segPage); err != nil {
		return err
	}
	if tr := k.tracer(); tr.Enabled() {
		var now uint64
		cpuID := -1
		if cpu != nil {
			now, cpuID = cpu.Now, cpu.ID
		}
		tr.Emit(now, metrics.EvPageFault, cpuID, uint64(e.segPage), uint64(e.seg.pages[e.segPage].frame))
	}
	r := e.region
	if r != nil && r.logSeg != nil && k.Chip != nil {
		// On-chip logging: the page's TLB entry carries the log index;
		// the page stays write-back (Section 4.6).
		e.logged = true
		e.writeThrough = r.writeThrough
		k.Chip.MapPage((r.base>>PageShift)+e.segPage, r.logSeg.logIndex)
	} else if k.Log != nil && e.seg.logged {
		// The prototype logger tags physical pages, so any mapping of a
		// segment with an active log is logged — whichever region the
		// write comes through (the log itself is selected per segment by
		// Activate/ContextSwitch).
		e.logged = true
		e.writeThrough = true
		if cpu != nil {
			cpu.Compute(cycles.LoggerEntrySetupCycles)
		}
		ls := e.seg.logTo
		if !k.Log.LogHead(ls.logIndex).Valid && !ls.absorbing {
			if !k.advanceLogHead(ls) {
				return fmt.Errorf("vm: cannot initialize log head for %q", ls.name)
			}
		}
		frame := e.seg.pages[e.segPage].frame
		displaced := k.loadPMT(e.seg, e.segPage, frame, ls.logIndex)
		_ = displaced // displaced pages recover via logging faults
	} else {
		e.logged = false
		e.writeThrough = r != nil && r.writeThrough
	}
	e.resident = true
	return nil
}
