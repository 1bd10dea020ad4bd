package vm

import (
	"fmt"

	"lvm/internal/metrics"
)

// PageStore is an optional extension of SegmentManager: segment managers
// that implement it receive evicted page contents and supply them again
// at the next fault, giving segments a backing store (the V++ Cache
// Kernel's user-level pager arrangement).
type PageStore interface {
	SegmentManager
	// StorePage receives the contents of a page being evicted.
	StorePage(seg *Segment, page uint32, data *[PageSize]byte)
}

// evictPage removes a page's frame, writing its contents to the segment
// manager's backing store when one exists. All mappings of the page are
// invalidated so the next touch re-faults; the hardware logger's
// page-mapping entry for the frame is removed (the next logged write to
// the re-faulted page reloads it, Section 3.2's displacement handling).
//
// Pages of deferred-copy destinations cannot be evicted: their per-line
// source state lives in the second-level cache and has no backing-store
// representation (the prototype pinned such working segments as well).
func (k *Kernel) evictPage(s *Segment, page uint32) error {
	if page >= s.NumPages() {
		return fmt.Errorf("vm: evict: page %d out of range", page)
	}
	if s.source != nil {
		return fmt.Errorf("vm: evict: segment %q is a deferred-copy destination", s.name)
	}
	if s.isLog && s.logIdxValid && s.started {
		// The hardware may hold a head pointer into this segment.
		cur := k.LogAppendOffset(s) >> PageShift
		if page == cur {
			return fmt.Errorf("vm: evict: page %d holds the active log head", page)
		}
	}
	p := &s.pages[page]
	if p.frame == 0 {
		return nil
	}
	if ps, ok := s.mgr.(PageStore); ok {
		ps.StorePage(s, page, k.M.Phys.Frame(p.frame))
	}
	if k.Log != nil {
		k.Log.InvalidatePMT(p.frame)
	}
	delete(k.owners, p.frame)
	k.M.Phys.Release(p.frame)
	p.frame = 0
	p.data = nil // phys hands this storage to the next frame it allocates
	p.dirty = false
	for i := range p.lineDirty {
		p.lineDirty[i] = 0
	}
	k.invalidateMappingsOf(s, page)
	k.Evictions++
	k.kshard(nil).Inc(metrics.VMEvictions)
	k.tracer().Emit(k.M.MaxNow(), metrics.EvEviction, -1, uint64(s.id), uint64(page))
	return nil
}

// invalidateMappingsOf forces every PTE mapping (s, page) to re-fault.
func (k *Kernel) invalidateMappingsOf(s *Segment, page uint32) {
	for _, as := range k.asList {
		for vp, e := range as.pt {
			if e.seg == s && e.segPage == page {
				e.resident = false
				if as.lastPTE == e {
					as.flushTLB()
				}
				_ = vp
			}
		}
	}
}
