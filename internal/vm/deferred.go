package vm

import (
	"fmt"
	"math/bits"

	"lvm/internal/cycles"
	"lvm/internal/machine"
	"lvm/internal/metrics"
)

// ResetStats reports what a ResetDeferredCopy did.
type ResetStats struct {
	PagesScanned int
	DirtyPages   int
	LinesReset   int
	// Cycles is the cost charged for the reset.
	Cycles uint64
}

// noteDeferredReset publishes one reset's work to the metrics layer
// (Figure 9's quantities: resets, dirty pages found, lines re-pointed).
func (k *Kernel) noteDeferredReset(cpu *machineCPU, st ResetStats) {
	sh := k.kshard(cpu)
	sh.Inc(metrics.VMDeferredResets)
	sh.Add(metrics.VMDeferredDirtyPages, uint64(st.DirtyPages))
	sh.Add(metrics.VMDeferredLinesReset, uint64(st.LinesReset))
}

// ResetDeferredCopySegment resets every page of a deferred-copy
// destination segment directly (without going through a bound region).
func (k *Kernel) ResetDeferredCopySegment(s *Segment, cpu *machine.CPU) (ResetStats, error) {
	var st ResetStats
	if s.source == nil {
		return st, fmt.Errorf("vm: segment %q has no deferred-copy source", s.name)
	}
	for i := range s.pages {
		st.PagesScanned++
		st.Cycles += cycles.ResetPageCheckCycles
		p := &s.pages[i]
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
	}
	if cpu != nil {
		cpu.Compute(st.Cycles)
		cpu.D1.InvalidateAll()
	}
	k.noteDeferredReset(cpu, st)
	return st, nil
}

// Bcopy copies n bytes from srcOff in src to dstOff in dst, charging the
// conventional block-copy cost (a block read plus a block write per
// 16-byte line). This is the baseline resetDeferredCopy is compared
// against in Section 4.4 / Figure 9.
func (k *Kernel) Bcopy(cpu *machine.CPU, dst *Segment, dstOff uint32, src *Segment, srcOff uint32, n uint32) error {
	if n == 0 {
		return nil
	}
	if dstOff+n > dst.size || srcOff+n > src.size {
		return fmt.Errorf("vm: Bcopy out of range")
	}
	// A page at a time through a stack buffer; within one segment with dst
	// above src, from the end, so overlapping ranges copy like memmove.
	var buf [PageSize]byte
	for done := uint32(0); done < n; {
		c := min(n-done, PageSize)
		at := done
		if src == dst && dstOff > srcOff {
			at = n - done - c
		}
		src.readInto(srcOff+at, buf[:c])
		if err := dst.writeBytes(dstOff+at, buf[:c]); err != nil {
			return err
		}
		done += c
	}
	lines := uint64((n + LineSize - 1) / LineSize)
	if cpu != nil {
		cpu.Compute(lines * cycles.BcopyLineCycles)
	}
	return nil
}
