// Package phys models the physical memory of the simulated ParaDiGM
// machine: a 32-bit physical address space divided into 4 KiB page frames.
//
// Frames are allocated lazily and stored on first write: a Memory's host
// cost is a frame-table pointer per frame it has handed out plus 4 KiB per
// frame ever written, not its nominal capacity. A frame once handed out
// stays allocated for the Memory's lifetime. A frame that has only been
// read is backed by one shared all-zero page (the kernel's demand-zero
// page); no pointer to it leaves this package. The hardware logger and the
// virtual-memory system both address this memory by physical address; the
// logger's page-mapping table is keyed by the 20-bit physical page number.
package phys

import (
	"errors"
	"fmt"
)

// Addr is a 32-bit physical address.
type Addr = uint32

const (
	// PageSize is the machine page size (4 KiB, Section 3.1).
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// PageMask extracts the offset within a page.
	PageMask = PageSize - 1
)

// PPN returns the physical page number of addr.
func PPN(addr Addr) uint32 { return addr >> PageShift }

// PageBase returns the first address of the page containing addr.
func PageBase(addr Addr) Addr { return addr &^ Addr(PageMask) }

// ErrOutOfMemory is returned when no free frame remains.
var ErrOutOfMemory = errors.New("phys: out of page frames")

// Memory is the machine's physical memory: an array of page frames
// handed out in order. Frame 0 is reserved (never allocated) so that
// physical address 0 can serve as an "invalid" sentinel.
//
// Frame numbering is part of the simulated machine, not a host detail: the
// logger's page-mapping table is direct-mapped on the frame number, so the
// order frames are handed out decides its conflicts and hence cycles.
// Frames go out low-to-high.
type Memory struct {
	// frames[f] is allocated frame f's storage: &zeroPage until Frame,
	// the write accessor, gives it its own (Read and Read32 copy out of
	// it). It covers frame 0 (nil) and every frame handed out, and grows
	// by one at each Alloc.
	frames    []*[PageSize]byte
	numFrames int
}

// zeroPage backs every allocated, never-written frame. It is only ever
// read: Frame replaces it before handing out a writable page.
var zeroPage [PageSize]byte

// NewMemory creates a physical memory with the given number of 4 KiB page
// frames. A frame's table slot is allocated on its first Alloc, its
// storage on its first write.
func NewMemory(numFrames int) *Memory {
	if numFrames < 2 {
		numFrames = 2
	}
	return &Memory{frames: make([]*[PageSize]byte, 1), numFrames: numFrames}
}

// Alloc allocates one zeroed page frame and returns its frame number.
func (m *Memory) Alloc() (uint32, error) {
	if len(m.frames) == m.numFrames {
		return 0, ErrOutOfMemory
	}
	m.frames = append(m.frames, &zeroPage)
	return uint32(len(m.frames) - 1), nil
}

// Allocated reports how many frames are handed out.
func (m *Memory) Allocated() int { return len(m.frames) - 1 }

// Frame returns the writable backing bytes of an allocated frame, giving
// it its own storage on first use. Frame 0 and a frame never handed out
// panic.
func (m *Memory) Frame(frame uint32) *[PageSize]byte {
	p := m.page(frame)
	if p == &zeroPage {
		p = new([PageSize]byte)
		m.frames[frame] = p
	}
	return p
}

// Adopt makes p the storage of an allocated frame that has none of its
// own yet (it was never written), with no copy, and reports whether it
// did: a frame already written keeps its storage. The frame then aliases
// p, so the caller hands p over. Frame 0 and a frame never handed out
// panic.
func (m *Memory) Adopt(frame uint32, p *[PageSize]byte) bool {
	if m.page(frame) != &zeroPage {
		return false
	}
	m.frames[frame] = p
	return true
}

// page returns an allocated frame's storage for reading: possibly the
// shared zero page, so it must not escape the package.
func (m *Memory) page(frame uint32) *[PageSize]byte {
	if int(frame) < len(m.frames) {
		if p := m.frames[frame]; p != nil {
			return p
		}
	}
	panic(unallocatedFrame(frame))
}

// unallocatedFrame is page's panic value. Building it is a conversion,
// not a call, which keeps page within the inliner's budget.
type unallocatedFrame uint32

func (f unallocatedFrame) Error() string {
	return fmt.Sprintf("phys: access to unallocated frame %d", uint32(f))
}

// FrameBase returns the physical address of the first byte of a frame.
func FrameBase(frame uint32) Addr { return Addr(frame) << PageShift }

// Read copies len(dst) bytes starting at physical address addr. The range
// must not cross a page boundary into an unallocated frame.
func (m *Memory) Read(addr Addr, dst []byte) {
	for len(dst) > 0 {
		f := m.page(PPN(addr))
		off := int(addr & PageMask)
		n := copy(dst, f[off:])
		dst = dst[n:]
		addr += Addr(n)
	}
}

// Write copies src to physical address addr.
func (m *Memory) Write(addr Addr, src []byte) {
	for len(src) > 0 {
		f := m.Frame(PPN(addr))
		off := int(addr & PageMask)
		n := copy(f[off:], src)
		src = src[n:]
		addr += Addr(n)
	}
}

// WriteBlock16 writes one 16-byte block at addr: the DMA unit of a log
// record. The fixed size compiles to straight-line stores, so the
// logger's per-record write avoids a memmove call.
func (m *Memory) WriteBlock16(addr Addr, src *[16]byte) {
	off := addr & PageMask
	if off+16 <= PageSize {
		f := m.Frame(PPN(addr))
		*(*[16]byte)(f[off:]) = *src
		return
	}
	m.Write(addr, src[:])
}

// Read32 reads a 32-bit little-endian word at addr.
func (m *Memory) Read32(addr Addr) uint32 {
	f := m.page(PPN(addr))
	off := addr & PageMask
	if off+4 <= PageSize {
		b := f[off : off+4 : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	var b [4]byte
	m.Read(addr, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Write32 writes a 32-bit little-endian word at addr.
func (m *Memory) Write32(addr Addr, v uint32) {
	f := m.Frame(PPN(addr))
	off := addr & PageMask
	if off+4 <= PageSize {
		b := f[off : off+4 : off+4]
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		return
	}
	var b [4]byte
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	m.Write(addr, b[:])
}
