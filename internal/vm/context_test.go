package vm

import (
	"testing"

	"lvm/internal/logrec"
)

func TestContextSwitchChargesCost(t *testing.T) {
	k := testKernel()
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	p := k.NewProcess(0, as1)
	before := p.Now()
	if err := k.ContextSwitch(p, as2); err != nil {
		t.Fatal(err)
	}
	if p.Now()-before < ContextSwitchCycles {
		t.Fatalf("switch cost = %d", p.Now()-before)
	}
	if p.AS != as2 {
		t.Fatalf("address space not installed")
	}
}

func TestContextSwitchInvalidatesL1(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", PageSize, nil)
	r := k.NewRegion(s)
	as := k.NewAddressSpace()
	base, _ := r.Bind(as, 0)
	p := k.NewProcess(0, as)
	p.Load32(base) // warm a line
	hitsBefore := p.CPU.D1.Hits
	p.Load32(base)
	if p.CPU.D1.Hits != hitsBefore+1 {
		t.Fatalf("expected warm hit")
	}
	if err := k.ContextSwitch(p, as); err != nil {
		t.Fatal(err)
	}
	missesBefore := p.CPU.D1.Misses
	p.Load32(base)
	if p.CPU.D1.Misses != missesBefore+1 {
		t.Fatalf("cache survived context switch")
	}
}

func TestActivateRequiresLoggedRegion(t *testing.T) {
	k := testKernel()
	s := k.NewSegment("s", PageSize, nil)
	r := k.NewRegion(s)
	if err := k.Activate(r, nil); err == nil {
		t.Fatalf("Activate on unlogged region accepted")
	}
}

func TestActivateIdempotent(t *testing.T) {
	k := testKernel()
	reg, _, ls, p, base := setupLogged(t, k, 1, 4)
	p.Store32(base, 1)
	if err := k.Activate(reg, p.CPU); err != nil {
		t.Fatal(err)
	}
	p.Store32(base+4, 2)
	k.Sync()
	if got := k.LogAppendOffset(ls) / 16; got != 2 {
		t.Fatalf("records after re-activate = %d", got)
	}
}

func TestSwitchPreservesLogPositions(t *testing.T) {
	// Alternate between two processes repeatedly: each log accumulates
	// only its own writes, in order, across many switches.
	k := testKernel()
	s := k.NewSegment("db", PageSize, nil)
	r1 := k.NewRegion(s)
	r2 := k.NewRegion(s)
	ls1 := k.NewLogSegment("l1", 8)
	ls2 := k.NewLogSegment("l2", 8)
	if err := r1.Log(ls1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Log(ls2); err != nil {
		t.Fatal(err)
	}
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	b1, _ := r1.Bind(as1, 0)
	b2, _ := r2.Bind(as2, 0)
	p := k.NewProcess(0, as1)
	for round := uint32(0); round < 6; round++ {
		if round%2 == 0 {
			if err := k.ContextSwitch(p, as1); err != nil {
				t.Fatal(err)
			}
			p.Store32(b1+round*4, 100+round)
		} else {
			if err := k.ContextSwitch(p, as2); err != nil {
				t.Fatal(err)
			}
			p.Store32(b2+round*4, 200+round)
		}
	}
	k.Sync()
	if got := k.LogAppendOffset(ls1) / 16; got != 3 {
		t.Fatalf("log1 records = %d", got)
	}
	if got := k.LogAppendOffset(ls2) / 16; got != 3 {
		t.Fatalf("log2 records = %d", got)
	}
	for i := uint32(0); i < 3; i++ {
		r1v := logrec.Decode(ls1.RawRead(i*16, 16)).Value
		r2v := logrec.Decode(ls2.RawRead(i*16, 16)).Value
		if r1v != 100+i*2 || r2v != 200+i*2+1 {
			t.Fatalf("round %d: %d / %d", i, r1v, r2v)
		}
	}
}

func TestWPCheckpointOnLoggedSegment(t *testing.T) {
	// Write-protect checkpointing composes with logging: the store is
	// both saved (first touch) and logged.
	k := testKernel()
	_, s, ls, p, base := setupLogged(t, k, 1, 4)
	wp, err := k.NewWPCheckpoint(s)
	if err != nil {
		t.Fatal(err)
	}
	p.Store32(base, 1)
	wp.Checkpoint(p.CPU)
	p.Store32(base, 2)
	if err := wp.Rollback(p.CPU); err != nil {
		t.Fatal(err)
	}
	if got := p.Load32(base); got != 1 {
		t.Fatalf("rollback = %d", got)
	}
	k.Sync()
	// Both stores were logged (the rollback's restore is a kernel remap,
	// not a store).
	if got := k.LogAppendOffset(ls) / 16; got != 2 {
		t.Fatalf("records = %d, want 2", got)
	}
}
