package rlvm

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"lvm/internal/core"
	"lvm/internal/logrec"
	"lvm/internal/ramdisk"
	"lvm/internal/rvm"
)

func setup(t *testing.T) (*core.System, *core.Process, *ramdisk.Disk, *Manager) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	d := ramdisk.New()
	m, err := New(sys, p, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, p, d, m
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoSetRangeNeeded(t *testing.T) {
	_, p, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+40, 7))
	must(t, m.Commit())
	if got := p.Load32(m.Base() + 40); got != 7 {
		t.Fatalf("committed value = %d", got)
	}
}

func TestAbortRollsBackViaDeferredCopy(t *testing.T) {
	_, p, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 1))
	must(t, m.RecoverableWrite32(m.Base()+4, 2))
	must(t, m.Commit())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 99))
	must(t, m.RecoverableWrite32(m.Base()+8, 100))
	must(t, m.Abort())
	if got := p.Load32(m.Base()); got != 1 {
		t.Fatalf("aborted word = %d, want 1", got)
	}
	if got := p.Load32(m.Base() + 4); got != 2 {
		t.Fatalf("committed word lost on abort: %d", got)
	}
	if got := p.Load32(m.Base() + 8); got != 0 {
		t.Fatalf("aborted word = %d, want 0", got)
	}
}

func TestAbortRewindsLog(t *testing.T) {
	sys, _, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 1))
	must(t, m.Abort())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+4, 2))
	must(t, m.Commit())
	// The aborted record must not have leaked into the committed WAL:
	// recover and check.
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, ramdiskOf(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Load32(m2.Base()); got != 0 {
		t.Fatalf("aborted write recovered: %d", got)
	}
	if got := p2.Load32(m2.Base() + 4); got != 2 {
		t.Fatalf("committed write lost: %d", got)
	}
}

func ramdiskOf(m *Manager) ramdisk.Device { return m.disk }

func TestRecoveryReplaysCommitted(t *testing.T) {
	sys, _, d, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+16, 1234))
	must(t, m.Commit())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+20, 5678))
	// Crash before commit.
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Load32(m2.Base() + 16); got != 1234 {
		t.Fatalf("recovered = %d", got)
	}
	if got := p2.Load32(m2.Base() + 20); got != 0 {
		t.Fatalf("uncommitted write survived crash: %d", got)
	}
}

func TestRecoveryAfterTruncation(t *testing.T) {
	sys, _, d, m := setup(t)
	for i := uint32(0); i < 20; i++ {
		must(t, m.Begin())
		must(t, m.RecoverableWrite32(m.Base()+i*4, 100+i))
		must(t, m.Commit())
	}
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 20; i++ {
		if got := p2.Load32(m2.Base() + i*4); got != 100+i {
			t.Fatalf("value %d after truncation+recovery = %d", i, got)
		}
	}
}

func TestSingleRecoverableWriteIsCheap(t *testing.T) {
	// Table 3: ~16 cycles for RLVM vs ~3515 for RVM. Our in-transaction
	// store is a 6-cycle logged write-through; with no per-write
	// software, it must stay two orders of magnitude below RVM's.
	_, p, _, m := setup(t)
	must(t, m.Begin())
	m.RecoverableWrite32(m.Base(), 1) // warm
	before := p.Now()
	must(t, m.RecoverableWrite32(m.Base(), 2))
	got := p.Now() - before
	if got > 40 {
		t.Fatalf("RLVM recoverable write = %d cycles, want ~6-16 (Table 3)", got)
	}
}

func TestMarkerDelimitsTransactions(t *testing.T) {
	_, _, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+8, 1111))
	must(t, m.Commit())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+12, 2222))
	must(t, m.Commit())
	var seqs []uint32
	markerSeen := 0
	dataSeen := 0
	if err := m.wal.Scan(func(seq uint32, ranges []rvm.WALRange) {
		seqs = append(seqs, seq)
		for _, r := range ranges {
			if r.Off == 0 {
				markerSeen++ // the transaction-identifier word itself
			}
			if r.Off >= MarkerBytes {
				dataSeen++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("WAL sequences = %v", seqs)
	}
	if markerSeen != 2 || dataSeen != 2 {
		t.Fatalf("marker=%d data=%d ranges in WAL", markerSeen, dataSeen)
	}
}

func TestPropertyCommittedStateMatchesShadow(t *testing.T) {
	type op struct {
		Off    uint16
		Val    uint32
		Commit bool
	}
	prop := func(ops []op) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
		p := sys.NewProcess(0, sys.NewAddressSpace())
		d := ramdisk.New()
		m, err := New(sys, p, 2*core.PageSize, d, Options{TruncateEvery: 3})
		if err != nil {
			return false
		}
		shadow := map[uint32]uint32{}
		for _, o := range ops {
			off := uint32(o.Off) % (2*core.PageSize - 4) &^ 3
			if m.Begin() != nil {
				return false
			}
			if m.RecoverableWrite32(m.Base()+off, o.Val) != nil {
				return false
			}
			if o.Commit {
				if m.Commit() != nil {
					return false
				}
				shadow[off] = o.Val
			} else if m.Abort() != nil {
				return false
			}
		}
		for off, v := range shadow {
			if p.Load32(m.Base()+off) != v {
				return false
			}
		}
		// Recovery equivalence.
		p2 := sys.NewProcess(0, sys.NewAddressSpace())
		m2, err := New(sys, p2, 2*core.PageSize, d, Options{})
		if err != nil {
			return false
		}
		for off, v := range shadow {
			if p2.Load32(m2.Base()+off) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateFailurePropagates pins the swallowed-error fix: a failure
// of the LVM-log truncation — injected in the window after the WAL is
// already reset — must surface to the caller instead of being tested
// only for success, and the manager must stay consistent: the log keeps
// its records, the next commit resumes from the same offset, and a
// recovery sees exactly the committed state.
func TestTruncateFailurePropagates(t *testing.T) {
	sys, _, d, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+16, 0xAA))
	must(t, m.Commit())

	boom := fmt.Errorf("injected truncation failure")
	m.CompactManager().FailHook = func() error { return boom }
	if err := m.Truncate(); !errors.Is(err, boom) {
		t.Fatalf("Truncate error = %v, want wrapped injected failure", err)
	}
	if got := m.CompactManager().Stats.TruncateFailures; got != 1 {
		t.Fatalf("truncate failures = %d, want 1", got)
	}
	if sys.K.LogAppendOffset(m.LogSegment()) == 0 {
		t.Fatal("failed truncation emptied the log anyway")
	}

	// With the injection cleared the same call succeeds, and the manager
	// keeps committing and recovering correctly.
	m.CompactManager().FailHook = nil
	must(t, m.Truncate())
	if got := sys.K.LogAppendOffset(m.LogSegment()); got != 0 {
		t.Fatalf("log append offset after truncate = %d, want 0", got)
	}
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+20, 0xBB))
	must(t, m.Commit())
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Load32(m2.Base() + 16); got != 0xAA {
		t.Fatalf("recovered word 16 = %#x, want 0xAA", got)
	}
	if got := p2.Load32(m2.Base() + 20); got != 0xBB {
		t.Fatalf("recovered word 20 = %#x, want 0xBB", got)
	}
}

// A commit the write-ahead log refuses leaves the transaction open and
// the checkpoint at the last committed state, so Abort rolls the
// transaction's writes back.
func TestAbortAfterRefusedCommit(t *testing.T) {
	_, p, d, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 1))
	must(t, m.Commit())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 99))
	boom := fmt.Errorf("injected write failure")
	d.FailHook = func(op ramdisk.Op, _ uint64, _ int) error {
		if op == ramdisk.OpWrite {
			return boom
		}
		return nil
	}
	if err := m.Commit(); !errors.Is(err, boom) {
		t.Fatalf("Commit error = %v, want the injected failure", err)
	}
	d.FailHook = nil
	must(t, m.Abort())
	if got := p.Load32(m.Base()); got != 1 {
		t.Fatalf("word after abort = %d, want the committed 1", got)
	}
}

// A record that fails logcursor.ValidWrite between two valid ones makes
// Commit fail: none of the transaction's records reaches the
// write-ahead log or the checkpoint, and the transaction stays open for
// Abort.
func TestCommitRefusesInvalidRecord(t *testing.T) {
	sys, p, d, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+8, 5))
	must(t, m.Commit())
	start := sys.K.LogAppendOffset(m.LogSegment())

	must(t, m.Begin()) // record 0: the marker word
	must(t, m.RecoverableWrite32(m.Base(), 1))
	must(t, m.RecoverableWrite32(m.Base()+4, 2))
	must(t, m.RecoverableWrite32(m.Base()+8, 3))
	sys.Sync()
	// Record 2 (the write of 2) gets size 3, which no store emits.
	m.LogSegment().RawWrite(start+2*logrec.Size+8, []byte{3, 0})
	if err := m.Commit(); err == nil {
		t.Fatal("Commit applied a log holding an invalid record")
	}
	if err := m.Begin(); err == nil {
		t.Fatal("the transaction was closed by a refused commit")
	}
	must(t, m.Abort())
	for off, want := range map[uint32]uint32{0: 0, 4: 0, 8: 5} {
		if got := p.Load32(m.Base() + core.Addr(off)); got != want {
			t.Errorf("word %d after abort = %d, want %d", off, got, want)
		}
	}
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for off, want := range map[uint32]uint32{0: 0, 4: 0, 8: 5} {
		if got := p2.Load32(m2.Base() + core.Addr(off)); got != want {
			t.Errorf("recovered word %d = %d, want %d", off, got, want)
		}
	}
}
