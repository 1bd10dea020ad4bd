package rvm

import (
	"testing"

	"lvm/internal/ramdisk"
)

func scanSeqs(t *testing.T, w *WAL) []uint32 {
	t.Helper()
	var seqs []uint32
	if err := w.Scan(func(seq uint32, ranges []WALRange) { seqs = append(seqs, seq) }); err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestWALScanReplaysInOrder(t *testing.T) {
	w := NewWAL(ramdisk.New(), 0)
	for seq := uint32(1); seq <= 3; seq++ {
		if err := w.AppendCommit(nil, seq, []WALRange{{Off: seq * 8, Data: []byte{byte(seq), 0, 0, 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	seqs := scanSeqs(t, w)
	if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("scan = %v, want [1 2 3]", seqs)
	}
}

// TestWALScanStopsAtStaleEpoch is the regression test for the
// stale-epoch bug: Reset only zeroes the first record header, so sealed
// records from the previous epoch survive past the new tail. When the
// new epoch's records happen to be the same size as the old ones, the
// scan used to walk straight off the new tail into perfectly-aligned
// stale commits and replay old values over newer state. The monotonic
// sequence check must stop it at the epoch boundary.
func TestWALScanStopsAtStaleEpoch(t *testing.T) {
	w := NewWAL(ramdisk.New(), 0)
	// Epoch 1: five commits of identical shape (so offsets align).
	rng := func(v byte) []WALRange { return []WALRange{{Off: 16, Data: []byte{v, v, v, v}}} }
	for seq := uint32(1); seq <= 5; seq++ {
		if err := w.AppendCommit(nil, seq, rng(byte(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(nil); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: two commits — fewer than the old epoch, same record size,
	// landing exactly on the old records' slots. Records 3..5 of epoch 1
	// are still on disk right after the new tail, sealed and parseable.
	for seq := uint32(6); seq <= 7; seq++ {
		if err := w.AppendCommit(nil, seq, rng(byte(seq))); err != nil {
			t.Fatal(err)
		}
	}
	tail := w.tail

	seqs := scanSeqs(t, w)
	if len(seqs) != 2 || seqs[0] != 6 || seqs[1] != 7 {
		t.Fatalf("scan = %v, want exactly the new epoch [6 7]", seqs)
	}
	if w.tail != tail {
		t.Fatalf("scan moved the tail to %d (into the stale epoch), want %d", w.tail, tail)
	}
}

func TestWALScanIgnoresTornSeal(t *testing.T) {
	d := ramdisk.New()
	w := NewWAL(d, 0)
	if err := w.AppendCommit(nil, 1, []WALRange{{Off: 0, Data: []byte{1, 2, 3, 4}}}); err != nil {
		t.Fatal(err)
	}
	tail := w.tail
	if err := w.AppendCommit(nil, 2, []WALRange{{Off: 8, Data: []byte{5, 6, 7, 8}}}); err != nil {
		t.Fatal(err)
	}
	// Tear the second record's seal.
	if err := d.TryWriteAt(nil, w.tail-4, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	seqs := scanSeqs(t, w)
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("scan = %v, want the intact record only", seqs)
	}
	if w.tail != tail {
		t.Fatalf("tail = %d after torn scan, want %d", w.tail, tail)
	}
}
