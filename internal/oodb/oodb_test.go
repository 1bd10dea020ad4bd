package oodb

import (
	"testing"

	"lvm/internal/core"
	"lvm/internal/ramdisk"
)

func openStores(t *testing.T) (rvmS, rlvmS *Store, rvmP, rlvmP *core.Process, rvmD, rlvmD *ramdisk.Disk) {
	t.Helper()
	cfg := DefaultConfig()
	sysA := core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: 16 << 8})
	rvmP = sysA.NewProcess(0, sysA.NewAddressSpace())
	rvmD = ramdisk.New()
	a, err := OpenRVM(sysA, rvmP, cfg, rvmD)
	if err != nil {
		t.Fatal(err)
	}
	sysB := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 16 << 8})
	rlvmP = sysB.NewProcess(0, sysB.NewAddressSpace())
	rlvmD = ramdisk.New()
	b, err := OpenRLVM(sysB, rlvmP, cfg, rlvmD)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, rvmP, rlvmP, rvmD, rlvmD
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateLookupUpdate(t *testing.T) {
	for _, s := range twoStores(t) {
		must(t, s.Begin())
		id, err := s.Create(7777, []uint32{10, 20, 30})
		must(t, err)
		must(t, s.Commit())
		got, ok := s.Lookup(7777)
		if !ok || got != id {
			t.Fatalf("lookup = %d, %v", got, ok)
		}
		if s.Field(id, 1) != 20 {
			t.Fatalf("field = %d", s.Field(id, 1))
		}
		must(t, s.Begin())
		must(t, s.Update(id, 1, 99))
		must(t, s.Commit())
		if s.Field(id, 1) != 99 {
			t.Fatalf("updated field = %d", s.Field(id, 1))
		}
	}
}

func twoStores(t *testing.T) []*Store {
	a, b, _, _, _, _ := openStores(t)
	return []*Store{a, b}
}

func TestAbortUndoesCreateAndIndex(t *testing.T) {
	for _, s := range twoStores(t) {
		must(t, s.Begin())
		_, err := s.Create(1234, []uint32{1})
		must(t, err)
		must(t, s.Abort())
		if _, ok := s.Lookup(1234); ok {
			t.Fatalf("aborted create visible in index")
		}
		if s.p.Load32(s.bitmapVA(0)) != 0 {
			t.Fatalf("slot still allocated after abort")
		}
		// The slot is reusable.
		must(t, s.Begin())
		id, err := s.Create(5678, []uint32{2})
		must(t, err)
		must(t, s.Commit())
		if id != 0 {
			t.Fatalf("slot not reused: %d", id)
		}
	}
}

func TestDeleteUnlinksChain(t *testing.T) {
	for _, s := range twoStores(t) {
		// Force collisions: keys hashing to the same bucket.
		must(t, s.Begin())
		var ids []uint32
		var keys []uint32
		base := uint32(4000)
		b0 := s.hash(base)
		keys = append(keys, base)
		for k := base + 1; len(keys) < 3; k++ {
			if s.hash(k) == b0 {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			id, err := s.Create(k, []uint32{k})
			must(t, err)
			ids = append(ids, id)
		}
		must(t, s.Commit())
		// Delete the middle of the chain.
		must(t, s.Begin())
		must(t, s.Delete(ids[1]))
		must(t, s.Commit())
		if _, ok := s.Lookup(keys[1]); ok {
			t.Fatalf("deleted key still found")
		}
		for _, i := range []int{0, 2} {
			if got, ok := s.Lookup(keys[i]); !ok || got != ids[i] {
				t.Fatalf("chain broken for %d", keys[i])
			}
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	cfg := DefaultConfig()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 16 << 8})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	d := ramdisk.New()
	s, err := OpenRLVM(sys, p, cfg, d)
	must(t, err)
	must(t, s.Begin())
	_, err = s.Create(42, []uint32{7})
	must(t, err)
	must(t, s.Commit())
	must(t, s.Begin())
	_, err = s.Create(43, []uint32{8})
	must(t, err)
	// Crash without commit; reopen on a fresh machine.
	sys2 := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 16 << 8})
	p2 := sys2.NewProcess(0, sys2.NewAddressSpace())
	s2, err := OpenRLVM(sys2, p2, cfg, d)
	must(t, err)
	if _, ok := s2.Lookup(42); !ok {
		t.Fatalf("committed object lost")
	}
	if _, ok := s2.Lookup(43); ok {
		t.Fatalf("uncommitted object recovered")
	}
}

func TestEnginesComputeSameState(t *testing.T) {
	a, b, _, _, _, _ := openStores(t)
	w := Workload{Objects: 64, TouchesPerTxn: 4, UpdatesPerObject: 3, ThinkCycles: 100}
	must(t, w.SeedStore(a))
	must(t, w.SeedStore(b))
	if _, err := w.Run(a, storeProc(a), 30); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(b, storeProc(b), 30); err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 64; k++ {
		ia, oka := a.Lookup(1000 + k)
		ib, okb := b.Lookup(1000 + k)
		if !oka || !okb {
			t.Fatalf("key %d missing", k)
		}
		for f := uint32(0); f < 3; f++ {
			if a.Field(ia, f) != b.Field(ib, f) {
				t.Fatalf("key %d field %d: rvm=%d rlvm=%d", k, f, a.Field(ia, f), b.Field(ib, f))
			}
		}
	}
}

func storeProc(s *Store) *core.Process { return s.p }

func TestStoreFull(t *testing.T) {
	cfg := Config{MaxObjects: 4, FieldsPerObject: 2, Buckets: 4}
	sys := core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: 2048})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	s, err := OpenRVM(sys, p, cfg, ramdisk.New())
	must(t, err)
	must(t, s.Begin())
	for i := uint32(0); i < 4; i++ {
		_, err := s.Create(i, []uint32{i})
		must(t, err)
	}
	if _, err := s.Create(99, []uint32{9}); err == nil {
		t.Fatalf("create on full store succeeded")
	}
	must(t, s.Commit())
}

func TestTransactionDiscipline(t *testing.T) {
	a, _, _, _, _, _ := openStores(t)
	if _, err := a.Create(1, nil); err == nil {
		t.Fatalf("create outside txn accepted")
	}
	if err := a.Update(0, 0, 1); err == nil {
		t.Fatalf("update outside txn accepted")
	}
	if err := a.Commit(); err == nil {
		t.Fatalf("commit outside txn accepted")
	}
	must(t, a.Begin())
	if err := a.Begin(); err == nil {
		t.Fatalf("nested begin accepted")
	}
	if err := a.Update(0, 99, 1); err == nil {
		t.Fatalf("out-of-range field accepted")
	}
}
