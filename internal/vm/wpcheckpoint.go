package vm

import (
	"fmt"

	"lvm/internal/cycles"
	"lvm/internal/machine"
)

// WPCheckpoint implements the virtual-memory-based checkpoint facility of
// Li and Appel discussed in Section 5.1 of the paper: "the operating
// system uses page write-protect to force a trap on the first write to a
// page after a checkpoint to save a copy of the page as part of this
// earlier checkpoint. Resetting to a previous checkpoint requires
// resetting the mappings... Creating a new checkpoint entails
// write-protecting all the virtual pages in the region."
//
// The paper notes "It would be relatively straightforward to extend our
// implementation to provide their form of checkpointing and allow the
// applications to choose" — this type is that extension, and the
// checkpoint-styles ablation compares it against deferred copy.
//
// Costs: Checkpoint() charges a per-page protect cost; the first write to
// a protected page charges a protection fault plus a page copy; Rollback()
// charges a per-page remap cost for each modified page (Li/Appel's cheap
// restore). One checkpoint may be active per segment.
type WPCheckpoint struct {
	k   *Kernel
	seg *Segment

	active    bool
	protected []bool
	saved     map[uint32][]byte // page -> contents at checkpoint time

	// Stats.
	Faults     uint64
	PagesSaved uint64
}

// Li/Appel cost model.
const (
	// WPProtectPageCycles is the cost of write-protecting one page when
	// the checkpoint is created (PTE update and TLB maintenance).
	WPProtectPageCycles = 150
	// WPRemapPageCycles is the per-modified-page cost of resetting the
	// mapping at rollback.
	WPRemapPageCycles = 200
)

// NewWPCheckpoint prepares write-protect checkpointing for a segment.
func (k *Kernel) NewWPCheckpoint(seg *Segment) (*WPCheckpoint, error) {
	if seg.wp != nil {
		return nil, fmt.Errorf("vm: segment %q already has a write-protect checkpointer", seg.name)
	}
	c := &WPCheckpoint{
		k:         k,
		seg:       seg,
		protected: make([]bool, len(seg.pages)),
		saved:     map[uint32][]byte{},
	}
	seg.wp = c
	return c, nil
}

// Checkpoint establishes a new checkpoint: every page of the region is
// write-protected. Prior saved pages are discarded (the previous
// checkpoint is replaced).
func (c *WPCheckpoint) Checkpoint(cpu *machine.CPU) {
	if n := uint32(len(c.seg.pages)); uint32(len(c.protected)) < n {
		c.protected = append(c.protected, make([]bool, n-uint32(len(c.protected)))...)
	}
	for i := range c.protected {
		c.protected[i] = true
	}
	c.saved = map[uint32][]byte{}
	c.active = true
	if cpu != nil {
		cpu.Compute(uint64(len(c.protected)) * WPProtectPageCycles)
	}
}

// protectedPage reports whether a write to the page would fault.
func (c *WPCheckpoint) protectedPage(page uint32) bool {
	return c.active && page < uint32(len(c.protected)) && c.protected[page]
}

// fault handles the first write to a protected page: save a copy and
// unprotect. The data capture happens uncharged (the hardware writes the
// copy); the cost is charged by the Process store path via FaultCost.
func (c *WPCheckpoint) fault(page uint32) {
	if !c.protectedPage(page) {
		return
	}
	c.protected[page] = false
	c.saved[page] = c.seg.RawRead(page*PageSize, PageSize)
	c.Faults++
	c.PagesSaved++
}

// FaultCost is the cycle cost of one write-protect fault: the trap plus
// the page copy.
func FaultCost() uint64 {
	return cycles.PageFaultCycles + uint64(LinesPerPage)*cycles.BcopyLineCycles
}

// Rollback restores the segment to the checkpoint: each modified page's
// saved copy is re-installed (modelled as Li/Appel's mapping reset, a
// cheap per-page remap) and re-protected so the checkpoint remains
// active.
func (c *WPCheckpoint) Rollback(cpu *machine.CPU) error {
	if !c.active {
		return fmt.Errorf("vm: rollback without an active checkpoint")
	}
	for page, data := range c.saved {
		c.seg.RawWrite(page*PageSize, data)
		c.protected[page] = true
		if cpu != nil {
			cpu.Compute(WPRemapPageCycles)
			cpu.D1.InvalidatePage(page << PageShift) // stale cached lines
		}
	}
	c.saved = map[uint32][]byte{}
	return nil
}
