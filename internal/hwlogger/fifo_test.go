package hwlogger

import (
	"bytes"
	"math/rand"
	"testing"

	"lvm/internal/cycles"
	"lvm/internal/logcore"
	"lvm/internal/machine"
	"lvm/internal/phys"
)

// TestFIFOGrowthMatchesFullRing drives a logger whose host ring starts at
// fifoInitial entries side by side with one whose ring is allocated at the
// modelled 819, with absorption and group commit on. Bursts push the FIFO
// past 32, 64, 128 and 256 entries up to the overload threshold; every
// step the two must agree on FIFO order, absorbBase, the absorption
// outcome, Pending, the overload stall, and at the end on the log bytes.
// (logcore's TestRingGrowsToHighWater checks the ring sizes themselves.)
func TestFIFOGrowthMatchesFullRing(t *testing.T) {
	const (
		dataPage   = 1
		markerPage = 2
		logFirst   = 3
		frames     = 16
	)
	type rig struct {
		l   *Logger
		mem *phys.Memory
	}
	var rigs [2]rig
	for i := range rigs {
		l, mem, b := newRig(t, frames)
		if i == 1 {
			m := model
			m.Ring = cycles.LoggerFIFOEntries
			l.Core = logcore.New(b, mem, m)
		}
		l.LoadPMT(dataPage, 0)
		l.LoadPMT(markerPage, 0)
		l.SetPMTAbsorb(markerPage, false)
		l.SetLogHead(0, phys.FrameBase(logFirst), ModeRecord)
		l.SetAbsorbWindow(16)
		l.SetGroupCommit(8, 400)
		// Wrap the log round the remaining frames: the test is about the
		// FIFO, not log capacity.
		l.OnFault = func(l *Logger, f Fault) bool {
			if f.Kind != FaultInvalidLogAddr {
				return false
			}
			next := phys.PPN(l.LogHead(0).Addr-1) + 1
			if next >= frames {
				next = logFirst
			}
			l.SetLogHead(0, phys.FrameBase(next), ModeRecord)
			return true
		}
		rigs[i] = rig{l, mem}
	}
	small, full := rigs[0].l, rigs[1].l

	pending := func(l *Logger) []machine.LoggedWrite {
		var out []machine.LoggedWrite
		l.PendingWrites(func(w machine.LoggedWrite) { out = append(out, w) })
		return out
	}
	rng := rand.New(rand.NewSource(25))
	var now uint64
	highWater := 0
	for step := 0; step < 30_000; step++ {
		// Alternate bursts (one store a cycle: the FIFO fills) with quiet
		// stretches (the logger catches up).
		if step%2000 < 1200 {
			now++
		} else {
			now += uint64(rng.Intn(60))
		}
		w := machine.LoggedWrite{Addr: phys.FrameBase(dataPage) + uint32(rng.Intn(64))*4, Value: rng.Uint32(), Size: 4, Time: now}
		if rng.Intn(50) == 0 {
			w.Addr = phys.FrameBase(markerPage) // an absorption barrier
		}
		if rng.Intn(4) == 0 {
			small.PumpUntil(now)
			full.PumpUntil(now)
		}
		absorbed := small.RecordsAbsorbed
		stallSmall, wakeSmall := small.Snoop(w)
		stallFull, wakeFull := full.Snoop(w)
		if stallSmall != stallFull || wakeSmall != wakeFull {
			t.Fatalf("step %d: Snoop stalls until %d wake %d, full ring %d wake %d", step, stallSmall, wakeSmall, stallFull, wakeFull)
		}
		if (small.RecordsAbsorbed != absorbed) != (full.RecordsAbsorbed != absorbed) {
			t.Fatalf("step %d: absorption differs", step)
		}
		if small.Pending() != full.Pending() || small.Seq() != full.Seq() || small.absorbBase != full.absorbBase ||
			small.Overloads != full.Overloads || small.RecordsWritten != full.RecordsWritten || small.FreeAt() != full.FreeAt() {
			t.Fatalf("step %d: Pending %d/%d Seq %d/%d absorbBase %d/%d overloads %d/%d written %d/%d FreeAt %d/%d",
				step, small.Pending(), full.Pending(), small.Seq(), full.Seq(), small.absorbBase, full.absorbBase,
				small.Overloads, full.Overloads, small.RecordsWritten, full.RecordsWritten, small.FreeAt(), full.FreeAt())
		}
		ps, pf := pending(small), pending(full)
		for i := range ps {
			if ps[i] != pf[i] {
				t.Fatalf("step %d: FIFO entry %d = %+v, full ring %+v", step, i, ps[i], pf[i])
			}
		}
		highWater = max(highWater, small.Pending())
	}
	small.DrainAll()
	full.DrainAll()

	// Snoop drains on reaching the threshold, so the high water seen
	// between steps is one below it.
	if small.Overloads == 0 || highWater != small.Threshold-1 {
		t.Errorf("the run never reached the overload threshold (high water %d, overloads %d)", highWater, small.Overloads)
	}
	if small.RecordsAbsorbed == 0 || small.GroupCommits != full.GroupCommits || small.RecordsLost != full.RecordsLost {
		t.Errorf("absorbed %d, group commits %d/%d, lost %d/%d",
			small.RecordsAbsorbed, small.GroupCommits, full.GroupCommits, small.RecordsLost, full.RecordsLost)
	}
	a, b := make([]byte, phys.PageSize), make([]byte, phys.PageSize)
	for f := uint32(logFirst); f < frames; f++ {
		rigs[0].mem.Read(phys.FrameBase(f), a)
		rigs[1].mem.Read(phys.FrameBase(f), b)
		if !bytes.Equal(a, b) {
			t.Fatalf("log frame %d differs", f)
		}
	}
}

// TestFIFOGrowthClampsToRaisedCapacity: a FIFO at a Capacity an experiment
// raised after New drops (with accounting) rather than growing past it.
func TestFIFOGrowthClampsToRaisedCapacity(t *testing.T) {
	l, _, _ := newRig(t, 4)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	l.Capacity, l.Threshold = 100, 1000 // overloads off: fill to Capacity
	for i := 0; i < 120; i++ {
		snoopW(l, 0x1000+uint32(i)*4, uint32(i), uint64(i))
	}
	if l.Pending() != 100 || l.RecordsLost != 20 {
		t.Fatalf("Pending %d, lost %d; want 100, 20", l.Pending(), l.RecordsLost)
	}
}
