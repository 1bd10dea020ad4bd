package machine

import (
	"math"
	"testing"

	"lvm/internal/cycles"
	"lvm/internal/phys"
)

func TestWordWriteThroughCost(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	c := m.CPUs[0]
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)
	c.WordWrite(addr, addr, 1, 4, true, false)
	if c.Now != cycles.WordWriteThroughTotal {
		t.Fatalf("write-through cost = %d, want %d (Table 2)", c.Now, cycles.WordWriteThroughTotal)
	}
}

func TestBlockOpsCost(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	c := m.CPUs[0]
	c.BlockWrite()
	if c.Now != cycles.BlockWriteTotal {
		t.Fatalf("block write cost = %d, want %d (Table 2)", c.Now, cycles.BlockWriteTotal)
	}
	before := c.Now
	c.BlockRead()
	if c.Now-before != cycles.BlockWriteTotal {
		t.Fatalf("block read cost = %d, want %d", c.Now-before, cycles.BlockWriteTotal)
	}
}

func TestWriteBackHitCost(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	c := m.CPUs[0]
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)
	c.WordWrite(addr, addr, 1, 4, false, false) // miss: fill
	missCost := c.Now
	if missCost != cycles.BlockWriteTotal+cycles.L1HitCycles {
		t.Fatalf("write miss cost = %d, want %d", missCost, cycles.BlockWriteTotal+cycles.L1HitCycles)
	}
	c.WordWrite(addr+4, addr+4, 2, 4, false, false) // same line: hit
	if c.Now-missCost != cycles.L1HitCycles {
		t.Fatalf("write hit cost = %d, want %d", c.Now-missCost, cycles.L1HitCycles)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := New(Config{NumCPUs: 2, MemFrames: 16})
	m.CPUs[0].Compute(100)
	m.CPUs[1].Compute(50)
	if m.MaxNow() != 100 {
		t.Fatalf("MaxNow = %d, want 100", m.MaxNow())
	}
}

func TestBusContentionBetweenCPUs(t *testing.T) {
	m := New(Config{NumCPUs: 2, MemFrames: 16})
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)
	// Both CPUs write through at the same local time: the second must
	// queue behind the first on the shared bus.
	m.CPUs[0].WordWrite(addr, addr, 1, 4, true, false)
	m.CPUs[1].WordWrite(addr+4, addr+4, 2, 4, true, false)
	if m.CPUs[0].Now != cycles.WordWriteThroughTotal {
		t.Fatalf("cpu0 = %d", m.CPUs[0].Now)
	}
	if m.CPUs[1].Now <= m.CPUs[0].Now {
		t.Fatalf("cpu1 (%d) did not queue behind cpu0 (%d)", m.CPUs[1].Now, m.CPUs[0].Now)
	}
}

func TestStallAll(t *testing.T) {
	m := New(Config{NumCPUs: 3, MemFrames: 16})
	m.CPUs[0].Compute(10)
	m.StallAll(100)
	for i, c := range m.CPUs {
		if c.Now != 100 {
			t.Fatalf("cpu%d = %d, want 100", i, c.Now)
		}
	}
	if m.CPUs[0].StallCycles != 90 {
		t.Fatalf("cpu0 stall = %d, want 90", m.CPUs[0].StallCycles)
	}
}

// fakeLog records snoops and exercises the LogDevice plumbing. It
// reports wake as its next due cycle: 0 (call on every bus request)
// unless a test sets it.
type fakeLog struct {
	snooped []LoggedWrite
	pumped  []uint64
	stall   uint64
	wake    uint64
}

func (f *fakeLog) Snoop(w LoggedWrite) (uint64, uint64) {
	f.snooped = append(f.snooped, w)
	if f.stall > w.Time {
		return f.stall, f.wake
	}
	return w.Time, f.wake
}
func (f *fakeLog) PumpUntil(t uint64) uint64 {
	f.pumped = append(f.pumped, t)
	return f.wake
}
func (f *fakeLog) DrainAll() uint64 { return 0 }

func TestLoggedWriteSnoops(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fl := &fakeLog{}
	m.AttachLog(fl)
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f) + 0x10
	m.CPUs[0].WordWrite(addr, addr, 0x42, 4, true, true)
	if len(fl.snooped) != 1 {
		t.Fatalf("snooped %d writes, want 1", len(fl.snooped))
	}
	w := fl.snooped[0]
	if w.Addr != addr || w.Value != 0x42 || w.Size != 4 || w.CPU != 0 {
		t.Fatalf("snooped = %+v", w)
	}
	if w.Time != cycles.WordWriteThroughTotal {
		t.Fatalf("snoop time = %d", w.Time)
	}
}

// TestPumpWaitsForDeviceWake: the machine calls the device only on a bus
// request past the least wake it was told, a snoop can only lower that
// wake, and WakeLog forgets it.
func TestPumpWaitsForDeviceWake(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fl := &fakeLog{wake: 1000}
	m.AttachLog(fl)
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)
	c := m.CPUs[0]
	c.Compute(1)
	// Unlogged write-through stores: each makes one bus request at c.Now.
	store := func() (pumped bool) {
		n := len(fl.pumped)
		c.WordWrite(addr, addr, 1, 4, true, false)
		return len(fl.pumped) > n
	}
	if !store() {
		t.Fatal("first bus request after AttachLog did not call the device")
	}
	for c.Now <= 1000 {
		if at := c.Now; store() {
			t.Fatalf("device called at cycle %d, before its wake 1000", at)
		}
	}
	fl.wake = math.MaxUint64
	if !store() || fl.pumped[len(fl.pumped)-1] <= 1000 {
		t.Fatalf("device not called past its wake: pumped at %v", fl.pumped)
	}
	if store() {
		t.Fatal("device called with nothing queued")
	}
	// A logged write that makes work due at wake lowers the machine's.
	wake := c.Now + 50
	fl.wake = wake
	c.WordWrite(addr, addr, 2, 4, true, true)
	fl.wake = math.MaxUint64
	c.WordWrite(addr, addr, 3, 4, true, true) // reports no wake: keeps the lower one
	for c.Now <= wake {
		if at := c.Now; store() {
			t.Fatalf("device called at cycle %d, before the snooped wake %d", at, wake)
		}
	}
	if !store() {
		t.Fatal("device not called past the snooped wake")
	}
	m.WakeLog()
	if !store() {
		t.Fatal("WakeLog did not make the next bus request call the device")
	}
}

func TestUnloggedWriteThroughDoesNotSnoop(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fl := &fakeLog{}
	m.AttachLog(fl)
	f, _ := m.Phys.Alloc()
	// Past cycle 0: PumpUntil(0) could service nothing, so it is skipped.
	m.CPUs[0].Compute(1)
	m.CPUs[0].WordWrite(phys.FrameBase(f), phys.FrameBase(f), 1, 4, true, false)
	if len(fl.snooped) != 0 {
		t.Fatalf("unlogged write snooped")
	}
	if len(fl.pumped) == 0 {
		t.Fatalf("log device not pumped before bus use")
	}
}

func TestSnoopStallAppliesToCPU(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fl := &fakeLog{stall: 5000}
	m.AttachLog(fl)
	f, _ := m.Phys.Alloc()
	m.CPUs[0].WordWrite(phys.FrameBase(f), phys.FrameBase(f), 1, 4, true, true)
	if m.CPUs[0].Now != 5000 {
		t.Fatalf("CPU not stalled by snoop: now = %d", m.CPUs[0].Now)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumCPUs != 4 {
		t.Fatalf("prototype has 4 CPUs, config says %d", cfg.NumCPUs)
	}
	m := New(cfg)
	if len(m.CPUs) != 4 {
		t.Fatalf("machine has %d CPUs", len(m.CPUs))
	}
}

func TestLoggedWriteBackSnoops(t *testing.T) {
	// Section 4.6: with on-chip logging support, a logged write in
	// write-back mode still reaches the log device (the CPU emits the
	// record itself).
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fl := &fakeLog{}
	m.AttachLog(fl)
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)
	m.CPUs[0].WordWrite(addr, 0x77770000, 5, 4, false, true)
	if len(fl.snooped) != 1 {
		t.Fatalf("write-back logged write not snooped")
	}
	if fl.snooped[0].VAddr != 0x77770000 {
		t.Fatalf("virtual address not carried: %#x", fl.snooped[0].VAddr)
	}
}

func TestDrainWaitsForLogDevice(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fl := &fakeLog{}
	m.AttachLog(fl)
	m.CPUs[0].Compute(50)
	if got := m.Drain(); got != 50 {
		t.Fatalf("Drain = %d, want 50 (device idle)", got)
	}
}

func TestStoreLoadCounters(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	c := m.CPUs[0]
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)
	c.WordWrite(addr, addr, 1, 4, false, false)
	c.WordRead(addr)
	c.WordRead(addr + 4)
	if c.Stores != 1 || c.Loads != 2 {
		t.Fatalf("counters: stores=%d loads=%d", c.Stores, c.Loads)
	}
}

func TestCycleWatchFiresOnceAndDisarms(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	c := m.CPUs[0]

	var fired []uint64
	m.SetCycleWatch(100, func(w *CPU) {
		fired = append(fired, w.Now)
		// Re-entrant work from the callback must not re-fire the
		// already-disarmed watch.
		w.Compute(500)
	})
	c.Compute(40) // 40 < 100: nothing
	if len(fired) != 0 {
		t.Fatalf("watch fired early at %v", fired)
	}
	c.Compute(70) // 110 >= 100: fires exactly once
	if len(fired) != 1 || fired[0] != 110 {
		t.Fatalf("fired = %v, want exactly [110]", fired)
	}
	c.Compute(1000) // disarmed: no re-fire
	if len(fired) != 1 {
		t.Fatalf("disarmed watch re-fired: %v", fired)
	}
}

func TestCycleWatchFiresOnWriteThroughStore(t *testing.T) {
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	c := m.CPUs[0]
	f, _ := m.Phys.Alloc()
	addr := phys.FrameBase(f)

	fired := false
	m.SetCycleWatch(1, func(w *CPU) { fired = true })
	c.WordWrite(addr, addr, 1, 4, true, false)
	if !fired {
		t.Fatalf("watch did not fire at a write-through store site")
	}
}

func TestCycleWatchDisarmedCostsNothing(t *testing.T) {
	// Two identical runs, one with a watch armed far beyond the horizon:
	// an armed-but-unfired watch must not change simulated timing.
	run := func(arm bool) uint64 {
		m := New(Config{NumCPUs: 1, MemFrames: 16})
		if arm {
			m.SetCycleWatch(1<<60, func(*CPU) {})
		}
		c := m.CPUs[0]
		f, _ := m.Phys.Alloc()
		addr := phys.FrameBase(f)
		for i := 0; i < 100; i++ {
			c.Compute(7)
			c.WordWrite(addr+phys.Addr(4*(i%8)), 0, uint32(i), 4, true, false)
		}
		return c.Now
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("armed watch changed timing: %d vs %d", a, b)
	}
	// SetCycleWatch(0, ...) disarms.
	m := New(Config{NumCPUs: 1, MemFrames: 16})
	fired := false
	m.SetCycleWatch(10, func(*CPU) { fired = true })
	m.SetCycleWatch(0, nil)
	m.CPUs[0].Compute(100)
	if fired {
		t.Fatalf("watch fired after explicit disarm")
	}
}
