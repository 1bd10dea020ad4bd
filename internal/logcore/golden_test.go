package logcore_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lvm/internal/bus"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"

	"lvm/internal/hwlogger"
	"lvm/internal/tlblog"
)

var update = flag.Bool("update", false, "rewrite testdata/loggers.golden from this run")

// goldenFrames is the physical memory each scenario runs over: frame 1 and
// 2 are data pages, 3 a no-absorb marker page, 4.. the log.
const (
	goldenFrames = 24
	dataPage     = 1
	dataPage2    = 2
	markerPage   = 3
	logFirst     = 4
)

type rig struct {
	mem *phys.Memory
	bus *bus.Bus
	reg *metrics.Registry
}

func newGoldenRig() rig {
	mem := phys.NewMemory(goldenFrames + 1)
	for i := 0; i < goldenFrames; i++ {
		mem.Alloc() //nolint:errcheck // fresh memory with room: cannot fail
	}
	return rig{mem: mem, bus: bus.New(), reg: metrics.New(1)}
}

// summary renders what a scenario left behind: the caller's stall sum and
// last cycle, the device's own figures, every non-zero counter and
// histogram, and a digest of all of memory.
func (r rig) summary(name string, stalls, last uint64, fields string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: stalls=%d last=%d %s\n", name, stalls, last, fields)
	snap := r.reg.Snapshot()
	var keys []string
	for k, v := range snap.Counters {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%d\n", k, snap.Counters[k])
	}
	keys = keys[:0]
	for k := range snap.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s:", k)
		for _, bk := range snap.Histograms[k].Buckets {
			fmt.Fprintf(&b, " %d/%d", bk.Le, bk.Count)
		}
		b.WriteByte('\n')
	}
	h := fnv.New64a()
	buf := make([]byte, phys.PageSize)
	for f := uint32(1); f <= goldenFrames; f++ {
		r.mem.Read(phys.FrameBase(f), buf)
		h.Write(buf)
	}
	fmt.Fprintf(&b, "  memory=%016x\n", h.Sum64())
	return b.String()
}

// hook drops every dropN-th record and flips one bit of every corruptN-th.
func hook(dropN, corruptN int, rng *rand.Rand) func(rec *logrec.Record, dst phys.Addr) bool {
	n := 0
	return func(rec *logrec.Record, dst phys.Addr) bool {
		n++
		if dropN > 0 && n%dropN == 0 {
			return true
		}
		if corruptN > 0 && n%corruptN == 0 {
			var buf [logrec.Size]byte
			rec.Encode(buf[:])
			bit := rng.Intn(logrec.Size * 8)
			buf[bit/8] ^= 1 << (bit % 8)
			*rec = logrec.Decode(buf[:])
		}
		return false
	}
}

type hwCase struct {
	name               string
	absorb             int
	groupN             int
	groupDL            uint64
	capacity, thresh   int
	dropN, corruptN    int
	mode               hwlogger.Mode
	discardEvery       int
	declineFaultsEvery int
}

// runHW drives the bus logger with a seeded stream of bursts and quiet
// stretches over two data pages (routed to two logs) and a marker page,
// with a competing CPU bus request every step, a kernel that walks each
// log round the log frames and re-loads displaced page mappings, and the
// case's absorb, group-commit, capacity, hook and discard settings.
func runHW(c hwCase) string {
	r := newGoldenRig()
	l := hwlogger.New(r.bus, r.mem)
	l.SetMetrics(r.reg.Shard(0), nil)
	if c.capacity > 0 {
		l.Capacity, l.Threshold = c.capacity, c.thresh
	}
	l.SetAbsorbWindow(c.absorb)
	l.SetGroupCommit(c.groupN, c.groupDL)
	rng := rand.New(rand.NewSource(33))
	if c.dropN > 0 || c.corruptN > 0 {
		l.DMAHook = hook(c.dropN, c.corruptN, rng)
	}
	l.LoadPMT(dataPage, 0)
	l.LoadPMT(markerPage, 0)
	l.SetPMTAbsorb(markerPage, false)
	l.SetLogHead(0, phys.FrameBase(logFirst), c.mode)
	l.SetLogHead(1, phys.FrameBase(logFirst+10)+0x40, c.mode)
	nextFrame := [2]uint32{logFirst + 1, logFirst + 11}
	faults := 0
	l.OnFault = func(l *hwlogger.Logger, f hwlogger.Fault) bool {
		faults++
		if c.declineFaultsEvery > 0 && faults%c.declineFaultsEvery == 0 {
			return false
		}
		switch f.Kind {
		case hwlogger.FaultMissingPMT:
			if f.PPN != dataPage2 {
				return false
			}
			l.LoadPMT(f.PPN, 1)
		case hwlogger.FaultInvalidLogAddr:
			i := f.LogIndex
			l.SetLogHead(i, phys.FrameBase(nextFrame[i]), c.mode)
			nextFrame[i]++
			if nextFrame[i] == logFirst+10*(uint32(i)+1) {
				nextFrame[i] = logFirst + 10*uint32(i)
			}
		}
		return true
	}
	var stalls, now uint64
	var discarded int
	for step := 0; step < 6000; step++ {
		if step%700 < 350 {
			now++
		} else {
			now += uint64(rng.Intn(70))
		}
		w := machine.LoggedWrite{Addr: phys.FrameBase(dataPage) + uint32(rng.Intn(48))*4, Value: rng.Uint32(), Size: 4, CPU: uint16(step & 1), Time: now}
		switch rng.Intn(40) {
		case 0:
			w.Addr = phys.FrameBase(markerPage)
		case 1, 2, 3:
			w.Addr = phys.FrameBase(dataPage2) + uint32(rng.Intn(1024))*4
		case 4:
			w.Size = 2
		}
		if rng.Intn(500) == 0 {
			// An alias of dataPage2 displaces its direct-mapped entry.
			l.LoadPMT(dataPage2^1<<15, 1)
		}
		l.PumpUntil(now)
		if s, _ := l.Snoop(w); s > now {
			stalls += s - now
			now = s
		}
		if rng.Intn(5) == 0 {
			now = r.bus.Acquire(now, 8) + 8
		}
		if c.discardEvery > 0 && step%c.discardEvery == c.discardEvery-1 {
			l.PendingWrites(func(w machine.LoggedWrite) { discarded += int(w.Value & 1) })
			discarded += l.DiscardPending()
		}
	}
	last := l.DrainAll()
	h0, h1 := l.LogHead(0), l.LogHead(1)
	return r.summary(c.name, stalls, last, fmt.Sprintf(
		"written=%d lost=%d absorbed=%d groups=%d overloads=%d faults=%d stall=%d discarded=%d head0=%v/%#x head1=%v/%#x",
		l.RecordsWritten, l.RecordsLost, l.RecordsAbsorbed, l.GroupCommits, l.Overloads, l.Faults, l.StallCycles,
		discarded, h0.Valid, h0.Addr, h1.Valid, h1.Addr))
}

type chipCase struct {
	name            string
	writeBuffer     int
	dropN, corruptN int
	declineEvery    int
}

// runChip drives the on-chip logger: bursts over two mapped virtual pages
// (two logs) and one unmapped page, descriptors one log frame at a time
// with a kernel that walks them round the log frames on OnFull, and a
// competing CPU bus request most steps.
func runChip(c chipCase) string {
	r := newGoldenRig()
	l := tlblog.New(r.bus, r.mem)
	l.SetMetrics(r.reg.Shard(0), nil)
	if c.writeBuffer > 0 {
		l.WriteBuffer = c.writeBuffer
	}
	rng := rand.New(rand.NewSource(46))
	if c.dropN > 0 || c.corruptN > 0 {
		l.DMAHook = hook(c.dropN, c.corruptN, rng)
	}
	l.MapPage(0x40, 0)
	l.MapPage(0x41, 1)
	l.SetDescriptor(0, phys.FrameBase(logFirst), phys.FrameBase(logFirst)+phys.PageSize)
	l.SetDescriptor(1, phys.FrameBase(logFirst+10)+0x20, phys.FrameBase(logFirst+10)+0x20+40*logrec.Size)
	nextFrame := [2]uint32{logFirst + 1, logFirst + 11}
	fulls := 0
	l.OnFull = func(l *tlblog.Logger, i uint16) bool {
		if i > 1 {
			return false // descriptor 2 is never set: its records are lost
		}
		fulls++
		if c.declineEvery > 0 && fulls%c.declineEvery == 0 {
			return false
		}
		base := phys.FrameBase(nextFrame[i])
		l.SetDescriptor(i, base, base+phys.PageSize)
		nextFrame[i]++
		if nextFrame[i] == logFirst+10*(uint32(i)+1) {
			nextFrame[i] = logFirst + 10*uint32(i)
		}
		return true
	}
	var stalls, now uint64
	for step := 0; step < 6000; step++ {
		if step%500 < 250 {
			now++
		} else {
			now += uint64(rng.Intn(30))
		}
		vpn := uint32(0x40)
		switch rng.Intn(20) {
		case 0, 1, 2:
			vpn = 0x41
		case 3:
			vpn = 0x77 // unmapped: lost
		}
		w := machine.LoggedWrite{
			Addr:  phys.FrameBase(dataPage) + uint32(rng.Intn(1024))*4,
			VAddr: vpn<<phys.PageShift + uint32(rng.Intn(1024))*4,
			Value: rng.Uint32(), Size: 4, CPU: uint16(step % 3), Time: now,
		}
		if rng.Intn(700) == 0 {
			l.MapPage(0x41, 2) // retag to a log with no space
		} else if rng.Intn(300) == 0 {
			l.MapPage(0x41, 1)
		}
		l.PumpUntil(now)
		if s, _ := l.Snoop(w); s > now {
			stalls += s - now
			now = s
		}
		if rng.Intn(3) == 0 {
			now = r.bus.Acquire(now, 8) + 9
		}
	}
	last := l.DrainAll()
	d0, d1 := l.Descriptor(0), l.Descriptor(1)
	return r.summary(c.name, stalls, last, fmt.Sprintf(
		"written=%d lost=%d stallEvents=%d desc0=%v/%#x desc1=%v/%#x",
		l.RecordsWritten, l.RecordsLost, l.StallEvents, d0.Valid, d0.Addr, d1.Valid, d1.Addr))
}

func loggerGolden() string {
	var b strings.Builder
	for _, c := range []hwCase{
		{name: "hw/record"},
		{name: "hw/absorb", absorb: 16},
		{name: "hw/group", groupN: 8, groupDL: 300},
		{name: "hw/absorb+group", absorb: 16, groupN: 8, groupDL: 300},
		{name: "hw/hook", dropN: 7, corruptN: 5},
		{name: "hw/hook+group", dropN: 7, corruptN: 5, groupN: 6, groupDL: 200, absorb: 8},
		{name: "hw/indexed", mode: hwlogger.ModeIndexed},
		{name: "hw/direct", mode: hwlogger.ModeDirect},
		{name: "hw/capacity", capacity: 60, thresh: 1000},
		{name: "hw/capacity+group", capacity: 60, thresh: 1000, groupN: 8, groupDL: 300, absorb: 4},
		{name: "hw/small-threshold", capacity: 819, thresh: 40},
		{name: "hw/discard", discardEvery: 97, absorb: 8},
		{name: "hw/decline", declineFaultsEvery: 3, groupN: 4, groupDL: 100},
	} {
		b.WriteString(runHW(c))
	}
	for _, c := range []chipCase{
		{name: "chip/default"},
		{name: "chip/hook", dropN: 6, corruptN: 4},
		{name: "chip/decline", declineEvery: 4},
		{name: "chip/wide-buffer", writeBuffer: 40},
		{name: "chip/one-slot", writeBuffer: 1, dropN: 11},
	} {
		b.WriteString(runChip(c))
	}
	return b.String()
}

// TestLoggerGolden pins both logger models record for record: every
// figure either device reports, every counter and histogram it charges,
// and the bytes it leaves in memory, over scenarios that exercise the
// FIFO (bursts, overloads, a capacity that drops, a wide write buffer),
// the record DMA (hooks that drop and corrupt, group commit, all three
// modes) and the loss ledger (declined faults, unmapped pages, full
// descriptors). A change that means to leave both devices' behaviour
// alone must leave it untouched.
func TestLoggerGolden(t *testing.T) {
	got := loggerGolden()
	path := filepath.Join("testdata", "loggers.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
