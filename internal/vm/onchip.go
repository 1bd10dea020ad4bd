package vm

import (
	"fmt"

	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/tlblog"
)

// On-chip logging mode (Section 4.6 of the paper): instead of the bus
// logger, the kernel drives a processor with TLB-resident log support.
// Consequences, exactly as the paper describes:
//
//   - log records carry virtual addresses, so no reverse translation is
//     needed and "per-region logging is also directly supported" — the
//     prototype's one-logged-region-per-segment restriction disappears;
//   - logged pages stay in ordinary write-back mode ("while still using
//     a physically addressed cache"): the CPU emits the record itself,
//     so logged writes cost the same as unlogged writes;
//   - there are no FIFO overload interrupts: "the processor is
//     automatically stalled if there is an excessive level of write
//     activity to a logged region."
//
// The kernel keeps the same Segment/Region/LogSegment interface; only the
// fault handling underneath differs.

// NewKernelOnChip builds a machine whose logging device is the
// next-generation on-chip logger.
func NewKernelOnChip(cfg machine.Config) *Kernel {
	k := NewKernelNoLogger(cfg)
	k.Chip = tlblog.New(k.M.Bus, k.M.Phys)
	k.attachLogger(k.Chip, 64) // the on-chip descriptor table's 64 entries
	k.Chip.OnFull = k.handleChipFull
	return k
}

// handleChipFull advances a log to its next page when the descriptor's
// space is exhausted (the on-chip analogue of the invalid-log-address
// logging fault).
func (k *Kernel) handleChipFull(_ *tlblog.Logger, logIndex uint16) bool {
	k.LoggingFaults++
	k.M.DeviceShard().Inc(metrics.VMLoggingFaults)
	return k.advanceLogIndex(logIndex)
}

// logOnChip enables logging for a region under the on-chip design: the
// region's virtual pages are tagged in the (extended) TLB with the log's
// descriptor index. Several regions of the same segment may log to
// different segments — the per-region logging of Section 4.6.
func (k *Kernel) logOnChip(r *Region, ls *Segment) error {
	if r.mode != 0 { // hwlogger.ModeRecord
		return fmt.Errorf("vm: the on-chip logger supports record mode only")
	}
	if !ls.logIdxValid {
		idx, err := k.allocLogIndex()
		if err != nil {
			return err
		}
		ls.logIndex = idx
		ls.logIdxValid = true
	}
	if !ls.started {
		if err := k.setLogHeadAt(ls, 0); err != nil {
			return err
		}
	}
	r.logSeg = ls
	ls.loggedRegions = append(ls.loggedRegions, r)
	if r.as != nil {
		r.mapChipPages()
		r.as.invalidateRange(r.base, r.size)
	}
	return nil
}

// mapChipPages installs the TLB log tags for every page of the region.
func (r *Region) mapChipPages() {
	k := r.seg.k
	npages := (r.size + PageSize - 1) / PageSize
	for p := uint32(0); p < npages; p++ {
		k.Chip.MapPage((r.base>>PageShift)+p, r.logSeg.logIndex)
	}
}

// ResolveLogAddr maps a log record's address field to the segment and
// offset it names: physical reverse translation for the prototype logger,
// direct virtual resolution through the regions logging to ls for the
// on-chip logger (whose records hold virtual addresses). Regions of
// different address spaces may overlap; the newest one holding addr
// names it.
func (k *Kernel) ResolveLogAddr(ls *Segment, addr uint32) (seg *Segment, off uint32, ok bool) {
	if k.Chip == nil {
		return k.ReverseTranslate(addr)
	}
	if ls == nil {
		return nil, 0, false
	}
	for i := len(ls.loggedRegions) - 1; i >= 0; i-- {
		if r := ls.loggedRegions[i]; addr >= r.base && addr < r.base+r.size {
			return r.seg, addr - r.base, true
		}
	}
	return nil, 0, false
}
