package cache

import (
	"testing"

	"lvm/internal/cycles"
)

func TestMissThenHit(t *testing.T) {
	c := NewL1()
	ev := c.Access(0x1000, false)
	if ev.Hit {
		t.Fatalf("first access hit")
	}
	ev = c.Access(0x1004, false)
	if !ev.Hit {
		t.Fatalf("same-line access missed")
	}
	ev = c.Access(0x1000+cycles.LineSize, false)
	if ev.Hit {
		t.Fatalf("next-line access hit")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	c := NewL1()
	// Write a line, then access a conflicting line (same index, different
	// tag): the victim must be written back.
	c.Access(0x0000, true)
	conflict := uint32(cycles.L1DataBytes) // same index, next tag
	ev := c.Access(conflict, false)
	if ev.Hit {
		t.Fatalf("conflicting access hit")
	}
	if !ev.WritebackVictim {
		t.Fatalf("dirty victim not written back")
	}
	if ev.VictimAddr != 0 {
		t.Fatalf("VictimAddr = %#x, want 0", ev.VictimAddr)
	}
}

func TestCleanVictimNoWriteback(t *testing.T) {
	c := NewL1()
	c.Access(0x0000, false)
	ev := c.Access(uint32(cycles.L1DataBytes), false)
	if ev.WritebackVictim {
		t.Fatalf("clean victim written back")
	}
}

func TestInvalidatePage(t *testing.T) {
	c := NewL1()
	c.Access(0x3000, true)
	c.Access(0x3010, false)
	dropped := c.InvalidatePage(0x3000)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 dirty line", dropped)
	}
	if ev := c.Access(0x3000, false); ev.Hit {
		t.Fatalf("line survived page invalidation")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := NewL1()
	for a := uint32(0); a < 4096; a += cycles.LineSize {
		c.Access(a, true)
	}
	c.InvalidateAll()
	ev := c.Access(0, false)
	if ev.Hit {
		t.Fatalf("line survived InvalidateAll")
	}
	if ev.WritebackVictim {
		t.Fatalf("invalidated dirty line written back")
	}
}

func TestStatsCount(t *testing.T) {
	c := NewL1()
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, true)
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
}
