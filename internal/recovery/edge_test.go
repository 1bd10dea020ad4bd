package recovery

// Edge-case coverage for the two rollback primitives crash recovery
// composes with — deferred-copy reset (Section 3.3) and log rewind
// (Section 2.4) — each pinned against the shadow reference checker
// rather than hand-picked probe words.

import (
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
)

// ckptShadow captures a segment's full contents into a shadow.
func ckptShadow(seg *core.Segment) *Shadow {
	sh := NewShadow(seg.Size())
	copy(sh.data, seg.RawRead(0, seg.Size()))
	return sh
}

func TestDeferredResetZeroModifiedLines(t *testing.T) {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 256})
	ckpt := core.NewNamedSegment(sys, "ckpt", 4*core.PageSize, nil)
	for off := uint32(0); off < ckpt.Size(); off += 64 {
		ckpt.Write32(off, off^0x5A5A)
	}
	work := core.NewNamedSegment(sys, "work", 4*core.PageSize, nil)
	if err := work.SetSourceSegment(ckpt, 0); err != nil {
		t.Fatal(err)
	}
	ref := ckptShadow(ckpt)

	// Reset with zero modified lines: nothing to undo, nothing scanned
	// dirty, and the state still matches the checkpoint byte for byte.
	st, err := sys.K.ResetDeferredCopySegment(work, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages != 0 || st.LinesReset != 0 {
		t.Fatalf("clean reset did work: %+v", st)
	}
	if d := ref.Diff(work, 0); len(d) != 0 {
		t.Fatalf("clean reset diverged from checkpoint: %v", d)
	}
}

func TestDeferredResetThenDoubleReset(t *testing.T) {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 256})
	ckpt := core.NewNamedSegment(sys, "ckpt", 4*core.PageSize, nil)
	for off := uint32(0); off < ckpt.Size(); off += 4 {
		ckpt.Write32(off, off*3+1)
	}
	work := core.NewNamedSegment(sys, "work", 4*core.PageSize, nil)
	if err := work.SetSourceSegment(ckpt, 0); err != nil {
		t.Fatal(err)
	}
	reg := core.NewStdRegion(sys, work)
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess(0, as)
	ref := ckptShadow(ckpt)

	// Scribble over three of the four pages, including a page-boundary
	// straddle.
	for i := uint32(0); i < 300; i++ {
		p.Store32(base+i*40%(3*core.PageSize), 0xDEAD0000+i)
	}
	sys.Sync()
	if d := ref.Diff(work, 0); len(d) == 0 {
		t.Fatalf("workload left no trace; test is vacuous")
	}

	st, err := sys.K.ResetDeferredCopySegment(work, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages == 0 || st.LinesReset == 0 {
		t.Fatalf("reset found no dirty state: %+v", st)
	}
	if d := ref.Diff(work, 0); len(d) != 0 {
		t.Fatalf("reset did not restore the checkpoint: %v", d)
	}

	// Double reset: the second pass must find nothing dirty, charge only
	// the page scans, and leave the state untouched.
	st2, err := sys.K.ResetDeferredCopySegment(work, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DirtyPages != 0 || st2.LinesReset != 0 {
		t.Fatalf("second reset re-found dirty state: %+v", st2)
	}
	if st2.Cycles >= st.Cycles {
		t.Fatalf("second reset cost %d >= first %d; cost must track dirty data", st2.Cycles, st.Cycles)
	}
	if d := ref.Diff(work, 0); len(d) != 0 {
		t.Fatalf("double reset diverged: %v", d)
	}
}

// TestLogRewindPastPageBoundary rewinds an append head that has crossed
// into a later log page back into the first page, appends a fresh tail,
// and verifies by full replay that exactly the pre-rewind prefix plus the
// new tail survive.
func TestLogRewindPastPageBoundary(t *testing.T) {
	recsPerPage := uint32(core.PageSize / logrec.Size)
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 1024})
	seg := core.NewNamedSegment(sys, "data", 16*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 4)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess(0, as)

	expected := NewShadow(seg.Size())
	keep := uint32(10) // records to survive the rewind
	// Fill a page and a half: the head crosses into log page 1.
	n := recsPerPage + recsPerPage/2
	for i := uint32(0); i < n; i++ {
		p.Store32(base+16+i*4, 1000+i)
		if i < keep {
			expected.Write32(16+i*4, 1000+i)
		}
	}
	sys.Sync()
	if got := sys.K.LogAppendOffset(ls); got != n*logrec.Size {
		t.Fatalf("append offset = %d before rewind, want %d", got, n*logrec.Size)
	}

	// Rewind across the page boundary, back into page 0.
	if err := sys.K.RewindLog(ls, keep*logrec.Size); err != nil {
		t.Fatal(err)
	}
	// Fresh tail after the rewind.
	for i := uint32(0); i < 20; i++ {
		off := uint32(0x8000) + i*4
		p.Store32(base+off, 2000+i)
		expected.Write32(off, 2000+i)
	}
	sys.Sync()
	if got := sys.K.LogAppendOffset(ls); got != (keep+20)*logrec.Size {
		t.Fatalf("append offset = %d after rewind+append, want %d", got, (keep+20)*logrec.Size)
	}

	dst := core.NewNamedSegment(sys, "rebuilt", seg.Size(), nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, ApplyAll: true})
	if res.Applied != int(keep+20) || res.InvalidRecords != 0 {
		t.Fatalf("replay = %+v, want %d applied", res, keep+20)
	}
	if d := expected.Diff(dst, 0); len(d) != 0 {
		t.Fatalf("replayed state diverges from shadow: %v", d)
	}

	// Rewind to the current offset is a no-op for the head...
	cur := sys.K.LogAppendOffset(ls)
	if err := sys.K.RewindLog(ls, cur); err != nil {
		t.Fatal(err)
	}
	if got := sys.K.LogAppendOffset(ls); got != cur {
		t.Fatalf("no-op rewind moved the head: %d != %d", got, cur)
	}
	// ...and a full truncation empties it.
	if err := sys.K.TruncateLog(ls); err != nil {
		t.Fatal(err)
	}
	if got := sys.K.LogAppendOffset(ls); got != 0 {
		t.Fatalf("truncate left head at %d", got)
	}
}
