package experiments

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/sim"
)

// Fig9Point is one measurement of Figure 9: the execution time of
// resetDeferredCopy() versus bcopy for a segment of the given size with
// the given amount of dirty data.
type Fig9Point struct {
	SegmentBytes uint32
	DirtyKB      uint32
	ResetCycles  uint64
	BcopyCycles  uint64
}

// Fig9Sizes are the paper's three segment sizes: "32-kilobyte,
// 512-kilobyte, and 2-megabyte segments... chosen to represent small,
// medium and large-sized segments."
var Fig9Sizes = []uint32{32 << 10, 512 << 10, 2 << 20}

// Fig9DirtyFractions sweeps the dirty fraction of the segment.
var Fig9DirtyFractions = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}

// Fig9 measures every point. Each point dirties the leading fraction of a
// deferred-copy destination with one uncharged raw word write per 16-byte
// line (marking the line modified, as a store through the cache would),
// then measures the reset, and compares with a bcopy of the whole
// segment. Each segment size gets its own machine, and the pool starts the
// largest first; within one size the dirty fractions share that machine
// and run strictly in order, each reset undoing the previous dirtying.
func Fig9() ([]Fig9Point, error) {
	return sim.FlatMap(len(Fig9Sizes), func(i int) ([]Fig9Point, error) {
		size := Fig9Sizes[i]
		frames := int(size/core.PageSize)*3 + 1024
		sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: frames})
		k := sys.K
		src := core.NewNamedSegment(sys, "ckpt", size, nil)
		dst := core.NewNamedSegment(sys, "working", size, nil)
		if err := dst.SetSourceSegment(src, 0); err != nil {
			return nil, err
		}
		cpu := sys.Machine().CPUs[0]

		// bcopy cost is independent of dirtiness: measure once.
		before := cpu.Now
		if err := k.Bcopy(cpu, dst, 0, src, 0, size); err != nil {
			return nil, err
		}
		bcopyCycles := cpu.Now - before
		// The bcopy dirtied everything; clear.
		if _, err := k.ResetDeferredCopySegment(dst, nil); err != nil {
			return nil, err
		}

		out := make([]Fig9Point, 0, len(Fig9DirtyFractions))
		for _, frac := range Fig9DirtyFractions {
			dirtyBytes := uint32(frac * float64(size))
			for off := uint32(0); off < dirtyBytes; off += core.LineSize {
				dst.Write32(off, off^0x5A5A5A5A)
			}
			st, err := k.ResetDeferredCopySegment(dst, cpu)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig9Point{
				SegmentBytes: size,
				DirtyKB:      dirtyBytes >> 10,
				ResetCycles:  st.Cycles,
				BcopyCycles:  bcopyCycles,
			})
		}
		return out, nil
	})
}

// Crossover returns the dirty fraction above which bcopy wins for a
// segment size, linearly interpolated between the measured points (paper:
// about two-thirds).
func Crossover(points []Fig9Point, size uint32) float64 {
	var prev *Fig9Point
	for i := range points {
		p := &points[i]
		if p.SegmentBytes != size {
			continue
		}
		if p.ResetCycles > p.BcopyCycles {
			if prev == nil {
				return 0
			}
			d0 := float64(prev.DirtyKB << 10)
			d1 := float64(p.DirtyKB << 10)
			r0 := float64(prev.ResetCycles)
			r1 := float64(p.ResetCycles)
			b := float64(p.BcopyCycles)
			if r1 == r0 {
				return d1 / float64(size)
			}
			return (d0 + (b-r0)*(d1-d0)/(r1-r0)) / float64(size)
		}
		prev = p
	}
	return 1.0
}

// FormatFig9 renders one block per segment size.
func FormatFig9(points []Fig9Point) string {
	s := ""
	for _, size := range Fig9Sizes {
		var rows [][]string
		for _, p := range points {
			if p.SegmentBytes != size {
				continue
			}
			rows = append(rows, []string{
				d(uint64(p.DirtyKB)),
				f1(float64(p.ResetCycles) / 1000),
				f1(float64(p.BcopyCycles) / 1000),
			})
		}
		s += fmt.Sprintf("segment %d KB:\n", size>>10)
		s += Table([]string{"dirty KB", "reset (kcycles)", "bcopy (kcycles)"}, rows)
		s += "\n"
	}
	return s
}
