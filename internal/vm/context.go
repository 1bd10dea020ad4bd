package vm

import (
	"fmt"
)

// Per-process logs on the prototype hardware via context switching —
// the extension Section 3.1.2 of the paper sketches: "The logger could be
// extended to use the processor number... A context switch could then
// unload logs from the logger tables as necessary to implement per-region
// logs."
//
// The bus logger maps *physical pages* to logs, so only one log can be
// active per segment at a time. Several regions (typically in different
// address spaces) may each register a log for the same segment; Activate
// points the hardware tables at one of them, and ContextSwitch activates
// every registered log of the incoming address space. While a region's
// log is inactive, writes to the segment are logged to whichever log is
// active — the physical reality of page-level tagging.

// ContextSwitchCycles is the kernel cost of a context switch (register
// save/restore, address-space change) excluding the logger-table reloads,
// which are charged per entry.
const ContextSwitchCycles = 800

// PMTReloadCycles is the per-entry cost of rewriting a logger
// page-mapping-table entry during activation.
const PMTReloadCycles = 30

// Activate points the prototype logger's tables at region r's log: every
// resident frame of r's segment maps to r's log index, and mappings in
// every address space re-fault so their cache-mode bits follow.
func (k *Kernel) Activate(r *Region, cpu *machineCPU) error {
	if k.Log == nil {
		return fmt.Errorf("vm: Activate requires the prototype logger")
	}
	ls := r.logSeg
	if ls == nil {
		return fmt.Errorf("vm: Activate on an unlogged region")
	}
	s := r.seg
	if s.logTo == ls {
		return nil // already active
	}
	// Drain in-flight records first: FIFO entries carry only physical
	// addresses and are routed through the page-mapping table at service
	// time, so rewriting the table under a non-empty FIFO would misroute
	// the previous process's tail of writes into the new log.
	k.Sync()
	if !ls.started {
		if err := k.setLogHeadAt(ls, 0); err != nil {
			return err
		}
	}
	s.logged = true
	s.logTo = ls
	s.logIndex = ls.logIndex
	n := uint64(0)
	for page := range s.pages {
		if f := s.pages[page].frame; f != 0 {
			k.loadPMT(s, uint32(page), f, ls.logIndex)
			n++
		}
	}
	if cpu != nil {
		cpu.Compute(n * PMTReloadCycles)
	}
	k.invalidateSegmentMappings(s)
	return nil
}

// invalidateSegmentMappings forces every PTE of a segment, in every
// address space, to re-fault so cache-mode and logging bits are
// recomputed.
func (k *Kernel) invalidateSegmentMappings(s *Segment) {
	for _, as := range k.asList {
		for _, e := range as.pt {
			if e.seg == s {
				e.resident = false
			}
		}
		as.flushTLB()
	}
}
