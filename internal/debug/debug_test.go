package debug

import (
	"testing"

	"lvm/internal/core"
)

// rig builds a logged region with an initial checkpoint and runs a little
// "program" that corrupts a variable partway through.
func rig(t *testing.T) (*core.System, *core.Segment, *core.Segment, *core.Segment, *core.Process, core.Addr) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 2048})
	seg := core.NewNamedSegment(sys, "prog", core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 16)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess(0, as)
	ckpt := core.NewNamedSegment(sys, "ckpt", core.PageSize, nil)
	return sys, seg, ls, ckpt, p, base
}

func TestWatchpointFindsWriter(t *testing.T) {
	sys, seg, ls, _, p, base := rig(t)
	p.Store32(base+0x10, 1)
	p.Compute(100)
	p.Store32(base+0x20, 2) // unrelated
	p.Compute(100)
	p.Store32(base+0x10, 3) // the overwrite
	w := NewWatcher(sys, seg, ls)
	writes := w.WritesTo(0x10, 4)
	if len(writes) != 2 {
		t.Fatalf("writes = %d, want 2", len(writes))
	}
	if writes[1].Value != 3 || writes[1].Index != 2 {
		t.Fatalf("overwrite = %+v", writes[1])
	}
	wi, ok := w.FirstOverwriteAfter(0x10, 4, 1)
	if !ok || wi.Value != 3 {
		t.Fatalf("FirstOverwriteAfter = %+v, %v", wi, ok)
	}
	if _, ok := w.FirstOverwriteAfter(0x40, 4, 0); ok {
		t.Fatalf("found write to untouched range")
	}
}

func TestLastWriterBefore(t *testing.T) {
	sys, seg, ls, _, p, base := rig(t)
	p.Store32(base+0x10, 1)
	p.Compute(4000)
	p.Store32(base+0x10, 2)
	w := NewWatcher(sys, seg, ls)
	all := w.WritesTo(0x10, 4)
	wi, ok := w.LastWriterBefore(0x10, 4, all[1].Timestamp)
	if !ok || wi.Value != 1 {
		t.Fatalf("LastWriterBefore = %+v, %v", wi, ok)
	}
}

func TestSubwordWatch(t *testing.T) {
	sys, seg, ls, _, p, base := rig(t)
	p.Store8(base+0x13, 0xAB) // touches [0x13,0x14)
	w := NewWatcher(sys, seg, ls)
	if got := w.WritesTo(0x10, 4); len(got) != 1 {
		t.Fatalf("byte write not seen by word watch: %d", len(got))
	}
	if got := w.WritesTo(0x14, 4); len(got) != 0 {
		t.Fatalf("byte write leaked into next word")
	}
}

func TestReverseExecution(t *testing.T) {
	sys, seg, ls, ckpt, p, base := rig(t)
	// The "program": x at +0x10 counts 1..5; at step 4 a stray write
	// corrupts y at +0x20.
	for i := uint32(1); i <= 5; i++ {
		p.Store32(base+0x10, i)
		if i == 4 {
			p.Store32(base+0x20, 0xDEAD)
		}
	}
	re, err := NewReverseExecutor(sys, seg, ls, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if re.Word(0x10) != 5 || re.Word(0x20) != 0xDEAD {
		t.Fatalf("failure-point state wrong: %#x %#x", re.Word(0x10), re.Word(0x20))
	}
	// Step back until y is intact; x must be 3 at that point (records:
	// x1 x2 x3 x4 y x5 -> position 4 is after x4 before y).
	n, err := re.FindLastGood(func(r *ReverseExecutor) bool { return r.Word(0x20) == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("last good position = %d, want 4", n)
	}
	if err := re.Goto(n); err != nil {
		t.Fatal(err)
	}
	if re.Word(0x10) != 4 {
		t.Fatalf("x at last-good = %d, want 4", re.Word(0x10))
	}
	// Step back twice more: x = 2? position 3 -> x=3, position 2 -> x=2.
	if err := re.StepBack(); err != nil {
		t.Fatal(err)
	}
	if err := re.StepBack(); err != nil {
		t.Fatal(err)
	}
	if re.Word(0x10) != 2 {
		t.Fatalf("x after two back-steps = %d", re.Word(0x10))
	}
	if err := re.Goto(0); err != nil {
		t.Fatal(err)
	}
	if re.Word(0x10) != 0 {
		t.Fatalf("initial state x = %d", re.Word(0x10))
	}
	if re.Goto(re.Records()+1) == nil {
		t.Fatalf("out-of-range Goto accepted")
	}
}

func TestReverseExecutorForwardSeek(t *testing.T) {
	sys, seg, ls, ckpt, p, base := rig(t)
	for i := uint32(1); i <= 10; i++ {
		p.Store32(base, i)
	}
	re, err := NewReverseExecutor(sys, seg, ls, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	re.Goto(3)
	if re.Word(0) != 3 {
		t.Fatalf("state at 3 = %d", re.Word(0))
	}
	re.Goto(7) // forward without rebuild
	if re.Word(0) != 7 {
		t.Fatalf("state at 7 = %d", re.Word(0))
	}
}

// LastWriterBefore finds the most recent write to [off, off+n) with a
// timestamp strictly before ts — "determine when data was erroneously
// overwritten".
func (w *Watcher) LastWriterBefore(off, n uint32, ts uint32) (WriteInfo, bool) {
	writes := w.WritesTo(off, n)
	for i := len(writes) - 1; i >= 0; i-- {
		if writes[i].Timestamp < ts {
			return writes[i], true
		}
	}
	return WriteInfo{}, false
}
