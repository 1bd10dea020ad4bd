package bus

import "testing"

func TestUncontendedGrant(t *testing.T) {
	b := New()
	if g := b.Acquire(10, 5); g != 10 {
		t.Fatalf("grant = %d, want 10", g)
	}
	if b.freeAt != 15 {
		t.Fatalf("freeAt = %d, want 15", b.freeAt)
	}
}

func TestContendedGrantSerializes(t *testing.T) {
	b := New()
	b.Acquire(0, 8)
	if g := b.Acquire(3, 5); g != 8 {
		t.Fatalf("second grant = %d, want 8", g)
	}
	if g := b.Acquire(0, 2); g != 13 {
		t.Fatalf("third grant = %d, want 13", g)
	}
}

func TestIdleGapPreserved(t *testing.T) {
	b := New()
	b.Acquire(0, 5)
	if g := b.Acquire(100, 5); g != 100 {
		t.Fatalf("grant after idle gap = %d, want 100", g)
	}
}

func TestStats(t *testing.T) {
	b := New()
	b.Acquire(0, 8)
	b.Acquire(0, 8) // waits 8
	busy, acq, waited := b.Stats()
	if busy != 16 || acq != 2 || waited != 8 {
		t.Fatalf("stats = (%d,%d,%d), want (16,2,8)", busy, acq, waited)
	}
}
