package vm

import (
	"fmt"

	"lvm/internal/machine"
	"lvm/internal/phys"
)

// machineCPU aliases machine.CPU for internal signatures.
type machineCPU = machine.CPU

// Process is a thread of execution bound to one simulated CPU and one
// address space. Its accessors are the application's loads and stores:
// they charge the cycle costs of the access (cache mode, bus, logging) and
// perform the data movement, including deferred-copy resolution.
//
// Accesses must be naturally aligned (the 68040 faults on unaligned
// accesses); an unaligned or unmapped access panics, which models the
// machine check / segmentation violation the prototype would take.
type Process struct {
	k   *Kernel
	CPU *machine.CPU
	AS  *AddressSpace
}

// NewProcess creates a process on the given CPU.
func (k *Kernel) NewProcess(cpuID int, as *AddressSpace) *Process {
	if cpuID < 0 || cpuID >= len(k.M.CPUs) {
		panic(fmt.Sprintf("vm: no CPU %d", cpuID))
	}
	return &Process{k: k, CPU: k.M.CPUs[cpuID], AS: as}
}

// Compute charges n cycles of computation.
func (p *Process) Compute(n uint64) { p.CPU.Compute(n) }

// Now returns the process's CPU clock.
func (p *Process) Now() uint64 { return p.CPU.Now }

// mustLookup returns va's PTE. It tests the one-entry TLB hit itself and
// is small enough to inline, so the common access makes no call; the
// alignment panic and the page-table walk are lookupSlow's. Masking va
// keeps its page bits and its misaligned low bits, so one compare with
// the TLB's page address tests both the page and the alignment.
func (p *Process) mustLookup(va Addr, size uint32) *pte {
	if va&^(PageMask^(size-1)) == p.AS.lastBase {
		return p.AS.lastPTE
	}
	return p.lookupSlow(va, size)
}

func (p *Process) lookupSlow(va Addr, size uint32) *pte {
	if va&(size-1) != 0 {
		panic(fmt.Sprintf("vm: unaligned %d-byte access at %#x", size, va))
	}
	e, err := p.AS.lookup(va, p.CPU)
	if err != nil {
		panic(err)
	}
	return e
}

// chargeWPFault charges the write-protect trap + page-copy cost when the
// store below will hit a Li/Appel-protected page (Section 5.1); the data
// capture itself happens in the segment's write path. Only the test for
// a checkpoint at all is inline.
func (p *Process) chargeWPFault(e *pte) {
	if e.seg.wp != nil {
		p.chargeWP(e)
	}
}

func (p *Process) chargeWP(e *pte) {
	if e.seg.wp.protectedPage(e.segPage) {
		p.CPU.Compute(FaultCost())
	}
}

// Store32 writes a 32-bit word at va.
func (p *Process) Store32(va Addr, v uint32) {
	e := p.mustLookup(va, 4)
	p.chargeWPFault(e)
	po := va & PageMask
	pg := &e.seg.pages[e.segPage]
	p.CPU.WordWrite(phys.FrameBase(pg.frame)+po, va, v, 4, e.writeThrough, e.logged)
	e.seg.store32(pg, e.segPage, po, v)
}

// Store16 writes a 16-bit halfword at va.
func (p *Process) Store16(va Addr, v uint16) {
	e := p.mustLookup(va, 2)
	p.chargeWPFault(e)
	po := va & PageMask
	paddr := phys.FrameBase(e.seg.pages[e.segPage].frame) + po
	p.CPU.WordWrite(paddr, va, uint32(v), 2, e.writeThrough, e.logged)
	b := [2]byte{byte(v), byte(v >> 8)}
	if err := e.seg.writePage(e.segPage, po, b[:]); err != nil {
		panic(err)
	}
}

// Store8 writes a byte at va.
func (p *Process) Store8(va Addr, v uint8) {
	e := p.mustLookup(va, 1)
	p.chargeWPFault(e)
	po := va & PageMask
	paddr := phys.FrameBase(e.seg.pages[e.segPage].frame) + po
	p.CPU.WordWrite(paddr, va, uint32(v), 1, e.writeThrough, e.logged)
	b := [1]byte{v}
	if err := e.seg.writePage(e.segPage, po, b[:]); err != nil {
		panic(err)
	}
}

// Load32 reads a 32-bit word at va.
func (p *Process) Load32(va Addr) uint32 {
	e := p.mustLookup(va, 4)
	po := va & PageMask
	paddr := phys.FrameBase(e.seg.pages[e.segPage].frame) + po
	p.CPU.WordRead(paddr)
	return e.seg.load32(e.segPage, po)
}
