package vm_test

import (
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/recovery"
	"lvm/internal/vm"
)

// TestLogLedgerTwoRegionsOneLog: a region that starts logging to a log
// another region already fills appends after its records; the head does
// not move back. On both kernels every record resolves to its own
// region's segment and offset, so a replay of either segment applies its
// own records and skips the other's.
func TestLogLedgerTwoRegionsOneLog(t *testing.T) {
	for _, kc := range []struct {
		name string
		boot func(machine.Config) *vm.Kernel
	}{{"bus", vm.NewKernel}, {"chip", vm.NewKernelOnChip}} {
		k := kc.boot(machine.Config{NumCPUs: 2, MemFrames: 2048})
		ls := k.NewLogSegment("log", 2)
		as := k.NewAddressSpace()
		p := k.NewProcess(0, as)
		logged := func(name string, n int) *vm.Segment {
			s := k.NewSegment(name, vm.PageSize, nil)
			r := k.NewRegion(s)
			if err := r.Log(ls); err != nil {
				t.Fatal(err)
			}
			base, err := r.Bind(as, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				p.Store32(base+vm.Addr(i)*4, uint32(i))
			}
			return s
		}
		s1 := logged("data", 5)
		s2 := logged("data2", 3)
		k.Sync()
		if off := k.LogAppendOffset(ls); off != 8*logrec.Size {
			t.Errorf("%s: append offset %d, want %d", kc.name, off, 8*logrec.Size)
		}
		for i, want := range []uint32{0, 1, 2, 3, 4, 0, 1, 2} {
			rec := logrec.Decode(ls.RawRead(uint32(i)*logrec.Size, logrec.Size))
			if rec.Value != want {
				t.Errorf("%s: record %d holds %d, want %d", kc.name, i, rec.Value, want)
			}
			wantSeg := s1
			if i >= 5 {
				wantSeg = s2
			}
			if seg, off, ok := k.ResolveLogAddr(ls, rec.Addr); !ok || seg != wantSeg || off != 4*want {
				t.Errorf("%s: record %d resolves to %v at %d (ok %v), want %s at %d", kc.name, i, seg, off, ok, wantSeg.Name(), 4*want)
			}
		}
		sys := &core.System{K: k}
		for _, c := range []struct {
			seg              *vm.Segment
			applied, skipped int
		}{{s1, 5, 3}, {s2, 3, 5}} {
			dst := k.NewSegment("dst", vm.PageSize, nil)
			res := recovery.Replay(sys, recovery.ReplayOptions{Log: ls, Data: c.seg, Dst: dst, ApplyAll: true})
			if res.Quarantined() || res.Applied != c.applied || res.Skipped != c.skipped {
				t.Errorf("%s: replay of %s: %+v, want %d applied, %d skipped", kc.name, c.seg.Name(), res, c.applied, c.skipped)
			}
			for i := 0; i < c.applied; i++ {
				if got := dst.Read32(uint32(i) * 4); got != uint32(i) {
					t.Errorf("%s: replay of %s: word %d holds %d", kc.name, c.seg.Name(), i, got)
				}
			}
		}
	}
}
