package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/ramdisk"
)

const (
	segSize     = 16 * core.PageSize
	markerLimit = 16
)

// logRig boots a one-CPU system with a logged segment and returns the
// pieces a replay test needs.
func logRig(t *testing.T) (*core.System, *core.Segment, *core.Segment, *core.Process, core.Addr) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 1024})
	seg := core.NewNamedSegment(sys, "data", segSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 8)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, seg, ls, sys.NewProcess(0, as), base
}

func TestReplayAppliesOnlyCommittedTransactions(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)

	p.Store32(base, 1) // begin txn 1
	p.Store32(base+0x100, 11)
	p.Store32(base+0x104, 12)
	p.Store32(base, 1|MarkerCommit) // commit txn 1
	p.Store32(base, 2)              // begin txn 2 — never commits
	p.Store32(base+0x200, 99)
	sys.Sync()

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit})

	if res.Txns != 1 || res.Applied != 2 || res.LastSeq != 1 {
		t.Fatalf("result = %+v, want 1 txn, 2 applied, last seq 1", res)
	}
	if res.IncompleteTail != 1 {
		t.Fatalf("IncompleteTail = %d, want the 1 uncommitted store", res.IncompleteTail)
	}
	if res.Quarantined() {
		t.Fatalf("clean log quarantined: %+v", res)
	}
	if dst.Read32(0x100) != 11 || dst.Read32(0x104) != 12 {
		t.Fatalf("committed writes not applied: %d %d", dst.Read32(0x100), dst.Read32(0x104))
	}
	if dst.Read32(0x200) != 0 {
		t.Fatalf("uncommitted write applied: %d", dst.Read32(0x200))
	}
}

func TestReplayBeginAfterUncommittedDropsBuffer(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)

	p.Store32(base, 1) // begin txn 1 — abandoned
	p.Store32(base+0x100, 11)
	p.Store32(base, 2) // begin txn 2 drops txn 1's buffer
	p.Store32(base+0x104, 22)
	p.Store32(base, 2|MarkerCommit)
	sys.Sync()

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit})

	if res.Txns != 1 || res.Applied != 1 || res.LastSeq != 2 {
		t.Fatalf("result = %+v, want txn 2 only", res)
	}
	if dst.Read32(0x100) != 0 || dst.Read32(0x104) != 22 {
		t.Fatalf("dst = %d/%d, want abandoned write dropped, committed applied",
			dst.Read32(0x100), dst.Read32(0x104))
	}
}

func TestReplayApplyAllIgnoresBracketing(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)
	p.Store32(base, 1)
	p.Store32(base+0x100, 11)
	// no commit
	sys.Sync()

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, ApplyAll: true})
	if res.Applied != 2 || res.IncompleteTail != 0 {
		t.Fatalf("result = %+v, want every record applied", res)
	}
	if dst.Read32(0) != 1 || dst.Read32(0x100) != 11 {
		t.Fatalf("raw replay missed writes")
	}
}

func TestReplayQuarantinesDamagedTail(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)

	// Three committed single-store transactions.
	for i := uint32(1); i <= 3; i++ {
		p.Store32(base, i)
		p.Store32(base+0x100+4*i, 100+i)
		p.Store32(base, i|MarkerCommit)
	}
	sys.Sync()
	end := sys.K.LogAppendOffset(ls)
	if end != 9*logrec.Size {
		t.Fatalf("append offset = %d, want 9 records", end)
	}

	// Corrupt the WriteSize field of record 4 (txn 2's data store): the
	// hardware never emits size 7, so validation must trip there.
	badOff := uint32(4 * logrec.Size)
	ls.RawWrite(badOff+8, []byte{7, 0})

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit})

	if res.InvalidRecords != 1 {
		t.Fatalf("InvalidRecords = %d, want 1", res.InvalidRecords)
	}
	if !res.Quarantined() || res.QuarantinedFrom != badOff {
		t.Fatalf("quarantine = %d, want from %d", res.QuarantinedFrom, badOff)
	}
	if res.QuarantinedBytes != end-badOff {
		t.Fatalf("QuarantinedBytes = %d, want %d", res.QuarantinedBytes, end-badOff)
	}
	// Txn 1 (before the damage) replayed; txns 2 and 3 did not.
	if dst.Read32(0x104) != 101 {
		t.Fatalf("txn 1 not replayed")
	}
	if dst.Read32(0x108) != 0 || dst.Read32(0x10c) != 0 {
		t.Fatalf("writes at/after the quarantine point were applied")
	}
}

func TestReplayEndOverride(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)
	p.Store32(base+0x100, 1)
	p.Store32(base+0x104, 2)
	sys.Sync()

	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, ApplyAll: true, End: logrec.Size})
	if res.Scanned != 1 {
		t.Fatalf("Scanned = %d with End = one record", res.Scanned)
	}
}

func TestRetryDiskAbsorbsTransientErrors(t *testing.T) {
	m := machine.New(machine.Config{NumCPUs: 1, MemFrames: 4})
	cpu := m.CPUs[0]
	d := ramdisk.New()
	fails := 2
	boom := errors.New("transient")
	d.FailHook = func(op ramdisk.Op, off uint64, n int) error {
		if fails > 0 {
			fails--
			return boom
		}
		return nil
	}
	rd := NewRetryDisk(d, nil, nil)

	before := cpu.Now
	if err := rd.TryWriteAt(cpu, 0, []byte{1}); err != nil {
		t.Fatalf("retry did not absorb 2 transient failures: %v", err)
	}
	if rd.Retries != 2 || rd.Exhausted != 0 {
		t.Fatalf("Retries = %d, Exhausted = %d, want 2/0", rd.Retries, rd.Exhausted)
	}
	// 3 attempted device ops plus a doubling backoff (256 then 512),
	// charged to the simulated clock.
	want := 3*(uint64(ramdisk.OpCycles)+ramdisk.BlockCycles) + 256 + 512
	if got := cpu.Now - before; got != want {
		t.Fatalf("retry cost = %d cycles, want %d", got, want)
	}
}

func TestRetryDiskExhaustsAfterBoundedAttempts(t *testing.T) {
	d := ramdisk.New()
	boom := errors.New("hard")
	d.FailHook = func(op ramdisk.Op, off uint64, n int) error { return boom }
	rd := NewRetryDisk(d, &Policy{Attempts: 3, BackoffCycles: 8}, nil)

	err := rd.TrySync(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("exhaustion error = %v, want wrapped cause", err)
	}
	if rd.Retries != 2 || rd.Exhausted != 1 {
		t.Fatalf("Retries = %d, Exhausted = %d, want 2/1", rd.Retries, rd.Exhausted)
	}
}

func TestShadowDiffFindsMaximalRanges(t *testing.T) {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 64})
	seg := core.NewNamedSegment(sys, "s", 2*core.PageSize, nil)
	sh := NewShadow(2 * core.PageSize)

	if d := sh.Diff(seg, 0); len(d) != 0 {
		t.Fatalf("fresh shadow vs fresh segment differ: %v", d)
	}
	// Two separated mismatches, one crossing a page boundary.
	seg.Write32(100, 0xAAAA)
	seg.Write32(core.PageSize-2, 0xBBBBBBBB) // bytes PageSize-2..PageSize+1
	diff := sh.Diff(seg, 0)
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want 2 ranges", diff)
	}
	if diff[0].Off != 100 {
		t.Fatalf("first range = %+v", diff[0])
	}
	if diff[1].Off != core.PageSize-2 || diff[1].Len != 4 {
		t.Fatalf("page-crossing range = %+v", diff[1])
	}
	// Matching the shadow clears the diff; Clone is independent.
	sh.Write32(100, 0xAAAA)
	c := sh.Clone()
	c.Write32(100, 0)
	if binary.LittleEndian.Uint32(sh.data[100:]) != 0xAAAA {
		t.Fatalf("Clone aliases the original")
	}
	// from skips earlier mismatches.
	if d := sh.Diff(seg, core.PageSize+4); len(d) != 0 {
		t.Fatalf("diff from past all damage: %v", d)
	}
}

func TestDefaultPolicyValues(t *testing.T) {
	p := DefaultPolicy()
	if p.Attempts != 5 || p.BackoffCycles != 256 {
		t.Fatalf("DefaultPolicy = %+v", p)
	}
	// Zero-valued policy fields fall back to defaults.
	rd := NewRetryDisk(ramdisk.New(), &Policy{}, nil)
	if rd.pol.Attempts != 5 || rd.pol.BackoffCycles != 256 {
		t.Fatalf("sanitized policy = %+v", rd.pol)
	}
}

func TestResultString(t *testing.T) {
	// Quarantined() and the sentinel must agree.
	r := Result{QuarantinedFrom: NoQuarantine}
	if r.Quarantined() {
		t.Fatalf("NoQuarantine reported as quarantined")
	}
	r.QuarantinedFrom = 0
	if !r.Quarantined() {
		t.Fatalf("offset-0 quarantine not reported")
	}
	_ = fmt.Sprintf("%+v", r)
}

func TestReplayStartSkipsCheckpointedPrefix(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)

	p.Store32(base, 1)
	p.Store32(base+0x100, 11)
	p.Store32(base, 1|MarkerCommit)
	sys.Sync()
	mark := sys.K.LogAppendOffset(ls) // a checkpoint's replay-skip point
	p.Store32(base, 2)
	p.Store32(base+0x200, 22)
	p.Store32(base, 2|MarkerCommit)
	sys.Sync()

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit, Start: mark})
	if res.Scanned != 3 || res.Txns != 1 || res.Applied != 1 {
		t.Fatalf("result = %+v, want only txn 2's 3-record tail", res)
	}
	if dst.Read32(0x200) != 22 {
		t.Fatalf("tail write not applied: %d", dst.Read32(0x200))
	}
	if dst.Read32(0x100) != 0 {
		t.Fatalf("skipped prefix was replayed: %d", dst.Read32(0x100))
	}
	// A misaligned Start rounds down to the record boundary; one past the
	// end scans nothing rather than faulting.
	res = Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: nil, MarkerLimit: markerLimit, Start: mark + 3})
	if res.Scanned != 3 {
		t.Fatalf("misaligned Start scanned %d records, want 3", res.Scanned)
	}
	end := sys.K.LogAppendOffset(ls)
	res = Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: nil, MarkerLimit: markerLimit, Start: end + logrec.Size})
	if res.Scanned != 0 || res.Quarantined() {
		t.Fatalf("past-end Start: %+v, want an empty clean scan", res)
	}
}
