package hwlogger

import (
	"math/rand"
	"testing"

	"lvm/internal/logrec"
)

// fullPMT is the table as the hardware has it: all 32 K entries present.
// The logger backs its table only up to the highest index loaded and must
// be indistinguishable from this through every kernel-facing call.
type fullPMT [pmtEntries]PMTEntry

func (p *fullPMT) load(ppn uint32, logIndex uint16) PMTEntry {
	e := &p[ppn&pmtIndexMask]
	displaced := *e
	*e = PMTEntry{Valid: true, Absorb: true, Tag: uint8(ppn >> pmtIndexBits), LogIndex: logIndex}
	return displaced
}

func (p *fullPMT) hit(ppn uint32) *PMTEntry {
	if e := &p[ppn&pmtIndexMask]; e.Valid && e.Tag == uint8(ppn>>pmtIndexBits) {
		return e
	}
	return nil
}

func TestPMTMatchesFullTable(t *testing.T) {
	l, _, _ := newRig(t, 1)
	if len(l.pmt) != 0 {
		t.Fatalf("a new logger backs %d PMT entries, want 0", len(l.pmt))
	}
	ref := new(fullPMT)
	rng := rand.New(rand.NewSource(1))
	top := uint32(0) // highest index loaded so far
	for step := 0; step < 100_000; step++ {
		// Indexes stay near the loaded range, so every step lands around
		// the growth edge: below it, just past it, and (three tags) on
		// aliases of both. Loads reach at most 8 past it, so the table
		// keeps growing in small steps for the whole run.
		op, reach := rng.Intn(4), 64
		if op == 0 {
			reach = 8
		}
		ppn := uint32(rng.Intn(int(top)+reach))%pmtEntries | uint32(rng.Intn(3))<<pmtIndexBits
		switch op {
		case 0:
			logIndex := uint16(rng.Intn(256))
			if got, want := l.LoadPMT(ppn, logIndex), ref.load(ppn, logIndex); got != want {
				t.Fatalf("step %d: LoadPMT(%#x) displaced %+v, full table %+v", step, ppn, got, want)
			}
			if idx := ppn & pmtIndexMask; idx > top {
				top = idx
			}
		case 1:
			absorb := rng.Intn(2) == 0
			l.SetPMTAbsorb(ppn, absorb)
			if e := ref.hit(ppn); e != nil {
				e.Absorb = absorb
			}
		default:
			logIndex, ok := l.LookupPMT(ppn)
			e := ref.hit(ppn)
			if ok != (e != nil) || (ok && logIndex != e.LogIndex) {
				t.Fatalf("step %d: LookupPMT(%#x) = %d, %v; full table %+v", step, ppn, logIndex, ok, e)
			}
			var got PMTEntry
			if idx := int(ppn & pmtIndexMask); idx < len(l.pmt) {
				got = l.pmt[idx]
			}
			if got != ref[ppn&pmtIndexMask] {
				t.Fatalf("step %d: entry for %#x = %+v, full table %+v", step, ppn, got, ref[ppn&pmtIndexMask])
			}
		}
		if len(l.pmt) != 0 && uint32(len(l.pmt)) != top+1 {
			t.Fatalf("step %d: %d entries backed, highest index loaded %d", step, len(l.pmt), top)
		}
	}
	if top < 1000 {
		t.Fatalf("the run only grew the table to index %d", top)
	}
}

// TestDisplacedAcrossGrowthAndAlias pins the two LoadPMT cases by hand: a
// load that grows the table displaces the invalid entry, and ppn and
// ppn + 1<<15 share an index whichever of them grew the table to it.
func TestDisplacedAcrossGrowthAndAlias(t *testing.T) {
	l, _, _ := newRig(t, 1)
	if d := l.LoadPMT(3, 7); d != (PMTEntry{}) {
		t.Fatalf("first load displaced %+v", d)
	}
	if d := l.LoadPMT(900, 8); d != (PMTEntry{}) { // growth step
		t.Fatalf("growing load displaced %+v", d)
	}
	if idx, ok := l.LookupPMT(3); !ok || idx != 7 {
		t.Fatalf("entry 3 after growth = %d, %v", idx, ok)
	}
	alias := uint32(2000 + 1<<pmtIndexBits)
	if d := l.LoadPMT(alias, 9); d != (PMTEntry{}) { // the alias grows the table
		t.Fatalf("growing alias load displaced %+v", d)
	}
	want := PMTEntry{Valid: true, Absorb: true, Tag: 1, LogIndex: 9}
	if d := l.LoadPMT(2000, 10); d != want {
		t.Fatalf("LoadPMT(2000) displaced %+v, want %+v", d, want)
	}
	if _, ok := l.LookupPMT(alias); ok {
		t.Fatalf("displaced alias still hits")
	}
}

// TestNeverLoadedPPNIsAMiss: a page whose index lies past everything ever
// loaded has no backing entry. Every path that consults the table must
// treat it as the invalid entry — a miss, a logging fault, an absorb
// barrier — and the fault handler's LoadPMT may grow the table mid-service.
func TestNeverLoadedPPNIsAMiss(t *testing.T) {
	l, mem, _ := newRig(t, 8)
	l.LoadPMT(1, 0)
	l.SetLogHead(0, 0x2000, ModeRecord)
	l.SetAbsorbWindow(8)
	const far = 0x7000 // ppn 7; only indexes 0 and 1 are backed
	for _, ppn := range []uint32{7, pmtIndexMask, 7 + 1<<pmtIndexBits, 1<<20 - 1} {
		if _, ok := l.LookupPMT(ppn); ok {
			t.Fatalf("LookupPMT(%#x) hit on a table loaded only at 1", ppn)
		}
		l.SetPMTAbsorb(ppn, false)
	}
	if len(l.pmt) != 2 {
		t.Fatalf("misses grew the table to %d entries", len(l.pmt))
	}

	var faults []Fault
	l.OnFault = func(lg *Logger, f Fault) bool {
		faults = append(faults, f)
		lg.LoadPMT(f.PPN, 0)
		return true
	}
	snoopW(l, 0x1100, 1, 10)
	snoopW(l, far, 9, 20) // a never-loaded index: an absorb barrier
	snoopW(l, 0x1100, 2, 30)
	if l.Pending() != 3 || l.RecordsAbsorbed != 0 {
		t.Fatalf("Pending = %d, absorbed = %d, want 3, 0", l.Pending(), l.RecordsAbsorbed)
	}
	l.DrainAll()
	if len(faults) != 1 || faults[0].Kind != FaultMissingPMT || faults[0].PPN != 7 {
		t.Fatalf("faults = %+v, want one FaultMissingPMT on ppn 7", faults)
	}
	if l.RecordsWritten != 3 || l.RecordsLost != 0 {
		t.Fatalf("written = %d, lost = %d, want 3, 0", l.RecordsWritten, l.RecordsLost)
	}
	if rec := logrec.Decode(mem.Frame(2)[logrec.Size:]); rec.Addr != far || rec.Value != 9 {
		t.Fatalf("second record = %+v", rec)
	}
}
