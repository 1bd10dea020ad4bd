package rvm

import (
	"testing"
	"testing/quick"

	"lvm/internal/core"
	"lvm/internal/cycles"
	"lvm/internal/ramdisk"
)

func setup(t *testing.T) (*core.System, *core.Process, *ramdisk.Disk, *Manager) {
	t.Helper()
	sys := core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: 4096})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	d := ramdisk.New()
	m, err := New(sys, p, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, p, d, m
}

func TestBasicTransaction(t *testing.T) {
	_, p, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+96, 42))
	must(t, m.Commit())
	if got := p.Load32(m.Base() + 96); got != 42 {
		t.Fatalf("committed value = %d", got)
	}
}

func TestAbortRestoresOldValues(t *testing.T) {
	_, p, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 1))
	must(t, m.Commit())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 2))
	must(t, m.RecoverableWrite32(m.Base()+4, 3))
	must(t, m.Abort())
	if got := p.Load32(m.Base()); got != 1 {
		t.Fatalf("aborted value = %d, want 1", got)
	}
	if got := p.Load32(m.Base() + 4); got != 0 {
		t.Fatalf("aborted value = %d, want 0", got)
	}
}

func TestAbortRestoresInReverseOrder(t *testing.T) {
	_, p, _, m := setup(t)
	must(t, m.Begin())
	// Overlapping SetRanges on the same word: reverse-order undo must
	// restore the ORIGINAL value.
	must(t, m.SetRange(m.Base(), 4))
	p.Store32(m.Base(), 10)
	must(t, m.SetRange(m.Base(), 4))
	p.Store32(m.Base(), 20)
	must(t, m.Abort())
	if got := p.Load32(m.Base()); got != 0 {
		t.Fatalf("overlapping abort = %d, want 0", got)
	}
}

func TestSetRangeOutsideRegionRejected(t *testing.T) {
	_, _, _, m := setup(t)
	must(t, m.Begin())
	if err := m.SetRange(0x10, 4); err == nil {
		t.Fatalf("SetRange outside region accepted")
	}
	if err := m.SetRange(m.Base()+8*core.PageSize-2, 8); err == nil {
		t.Fatalf("SetRange overrunning region accepted")
	}
}

func TestTransactionDiscipline(t *testing.T) {
	_, _, _, m := setup(t)
	if err := m.SetRange(m.Base(), 4); err == nil {
		t.Fatalf("SetRange outside txn accepted")
	}
	if err := m.Commit(); err == nil {
		t.Fatalf("Commit outside txn accepted")
	}
	if err := m.Abort(); err == nil {
		t.Fatalf("Abort outside txn accepted")
	}
	must(t, m.Begin())
	if err := m.Begin(); err == nil {
		t.Fatalf("nested Begin accepted")
	}
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	sys, p, d, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+8, 77))
	must(t, m.Commit())
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base()+12, 88))
	// Crash: no commit. Build a fresh manager over the same disk.
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Load32(m2.Base() + 8); got != 77 {
		t.Fatalf("recovered committed value = %d", got)
	}
	if got := p2.Load32(m2.Base() + 12); got != 0 {
		t.Fatalf("uncommitted value recovered: %d", got)
	}
	_ = p
}

func TestRecoveryAfterTruncation(t *testing.T) {
	sys, _, d, m := setup(t)
	// Enough commits to force a truncation (default every 8).
	for i := uint32(0); i < 10; i++ {
		must(t, m.Begin())
		must(t, m.RecoverableWrite32(m.Base()+i*4, 100+i))
		must(t, m.Commit())
	}
	p2 := sys.NewProcess(0, sys.NewAddressSpace())
	m2, err := New(sys, p2, 8*core.PageSize, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 10; i++ {
		if got := p2.Load32(m2.Base() + i*4); got != 100+i {
			t.Fatalf("value %d after truncation+recovery = %d", i, got)
		}
	}
}

func TestSingleRecoverableWriteCost(t *testing.T) {
	// Table 3: a single recoverable write costs ~3515 cycles in RVM.
	_, p, _, m := setup(t)
	must(t, m.Begin())
	m.RecoverableWrite32(m.Base(), 1) // warm the caches
	before := p.Now()
	must(t, m.RecoverableWrite32(m.Base(), 2))
	got := p.Now() - before
	if got < 3400 || got > 3600 {
		t.Fatalf("recoverable write = %d cycles, want ~3515 (Table 3)", got)
	}
	_ = cycles.SetRangeOverheadCycles
}

func TestStatsAccumulate(t *testing.T) {
	_, _, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.RecoverableWrite32(m.Base(), 5))
	must(t, m.Commit())
	if m.Stats.Txns != 1 || m.Stats.SetRanges != 1 || m.Stats.BytesSaved != 4 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	if m.Stats.InTxnCycles == 0 || m.Stats.CommitCycles == 0 {
		t.Fatalf("cycle stats empty: %+v", m.Stats)
	}
}

func TestWALScanStopsAtTorn(t *testing.T) {
	d := ramdisk.New()
	w := NewWAL(d, 0)
	w.AppendCommit(nil, 1, []WALRange{{Off: 0, Data: []byte{1, 2, 3, 4}}})
	// Corrupt the end marker of a hand-written second record: write a
	// header with no end magic.
	if err := d.TryWriteAt(nil, w.tail, []byte{0x31, 0x4D, 0x56, 0x52, 2, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := w.Scan(func(seq uint32, ranges []WALRange) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scanned %d records, want 1 (torn tail ignored)", n)
	}
}

func TestPropertyCommittedStateMatchesShadow(t *testing.T) {
	// Property: after any sequence of committed/aborted transactions,
	// the recoverable segment equals a shadow map of committed writes,
	// and recovery from disk reproduces it.
	type op struct {
		Off    uint16
		Val    uint32
		Commit bool
	}
	prop := func(ops []op) bool {
		sys := core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: 4096})
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
			} else {
				if m.Abort() != nil {
					return false
				}
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
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestWALPropertyScanReproducesCommits(t *testing.T) {
	// Random commit batches written to the WAL scan back identically.
	prop := func(batches [][]byte, seeds []uint16) bool {
		d := ramdisk.New()
		w := NewWAL(d, 0)
		var wrote [][]WALRange
		for i, b := range batches {
			if i >= 8 {
				break
			}
			if len(b) > 200 {
				b = b[:200]
			}
			var ranges []WALRange
			off := uint32(0)
			for len(b) > 0 {
				n := len(b)
				if n > 24 {
					n = 24
				}
				ranges = append(ranges, WALRange{Off: off, Data: append([]byte(nil), b[:n]...)})
				off += uint32(n) + 8
				b = b[n:]
			}
			w.AppendCommit(nil, uint32(i+1), ranges)
			wrote = append(wrote, ranges)
		}
		var got [][]WALRange
		w2 := NewWAL(d, 0)
		if err := w2.Scan(func(seq uint32, rs []WALRange) {
			got = append(got, rs)
		}); err != nil {
			return false
		}
		if len(got) != len(wrote) {
			return false
		}
		for i := range wrote {
			if len(got[i]) != len(wrote[i]) {
				return false
			}
			for j := range wrote[i] {
				if got[i][j].Off != wrote[i][j].Off || string(got[i][j].Data) != string(wrote[i][j].Data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWALResetDiscards(t *testing.T) {
	d := ramdisk.New()
	w := NewWAL(d, 0)
	w.AppendCommit(nil, 1, []WALRange{{Off: 0, Data: []byte{1, 2, 3, 4}}})
	w.Reset(nil)
	n := 0
	if err := w.Scan(func(uint32, []WALRange) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("records after reset = %d", n)
	}
	// New commits append from the start again.
	w.AppendCommit(nil, 2, []WALRange{{Off: 8, Data: []byte{9}}})
	w3 := NewWAL(d, 0)
	var seqs []uint32
	w3.Scan(func(seq uint32, _ []WALRange) { seqs = append(seqs, seq) })
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("seqs after reset+append = %v", seqs)
	}
}

func TestEmptyCommit(t *testing.T) {
	// A transaction with no writes commits cleanly (empty range set).
	_, _, _, m := setup(t)
	must(t, m.Begin())
	must(t, m.Commit())
	if m.Stats.Txns != 1 {
		t.Fatalf("txns = %d", m.Stats.Txns)
	}
}
