package recovery

import (
	"encoding/binary"

	"lvm/internal/core"
)

// Shadow is a reference copy of a logged segment maintained outside the
// simulated machine (plain host memory — no simulated cycles, no
// logging). The crash-recovery harness applies each write to the shadow
// only once it is known durable; after recovery, Diff against the
// recovered segment is the ground-truth correctness check.
type Shadow struct {
	data []byte
}

// NewShadow creates a zeroed shadow of the given size (segments start
// zero-filled, so a fresh shadow matches a fresh segment).
func NewShadow(size uint32) *Shadow {
	return &Shadow{data: make([]byte, size)}
}

// Size returns the shadow's size in bytes.
func (s *Shadow) Size() uint32 { return uint32(len(s.data)) }

// Write32 stores a little-endian word, mirroring Process.Store32.
func (s *Shadow) Write32(off, v uint32) {
	binary.LittleEndian.PutUint32(s.data[off:], v)
}

// Clone returns an independent copy.
func (s *Shadow) Clone() *Shadow {
	c := &Shadow{data: make([]byte, len(s.data))}
	copy(c.data, s.data)
	return c
}

// DiffRange is one maximal run of bytes where segment and shadow
// disagree.
type DiffRange struct {
	Off, Len uint32
}

// Diff compares the shadow against seg over [from, size) and returns the
// maximal mismatching ranges (nil when the states agree). It reads the
// segment through RawRead-style access, so it charges no simulated
// cycles and triggers no logging.
func (s *Shadow) Diff(seg *core.Segment, from uint32) []DiffRange {
	n := s.Size()
	if sz := seg.Size(); sz < n {
		n = sz
	}
	var out []DiffRange
	var buf [core.PageSize]byte
	open := false
	var start uint32
	for off := from; off < n; {
		chunk := n - off
		if chunk > core.PageSize {
			chunk = core.PageSize
		}
		seg.ReadInto(off, buf[:chunk])
		for i := uint32(0); i < chunk; i++ {
			if buf[i] != s.data[off+i] {
				if !open {
					open = true
					start = off + i
				}
			} else if open {
				open = false
				out = append(out, DiffRange{Off: start, Len: off + i - start})
			}
		}
		off += chunk
	}
	if open {
		out = append(out, DiffRange{Off: start, Len: n - start})
	}
	return out
}
