// Package machine models the ParaDiGM multiprocessor of the LVM prototype:
// four (configurable) 25 MHz processors with on-chip split I/D caches, a
// shared system bus, a 4 MiB second-level cache, physical memory, and an
// attached bus-snooping log device.
//
// The model is a deterministic, single-threaded, cycle-level simulation.
// Each CPU carries its own cycle clock; the bus serializes all off-chip
// traffic on a shared timeline; the log device (the hardware logger of
// Section 3.1, or the on-chip logger of Section 4.6) is pumped lazily so
// that its DMA traffic competes with CPU traffic for the bus exactly as in
// the prototype. All costs are calibrated to Table 2 of the paper; see
// package cycles.
//
// The Go runtime cannot trap individual stores the way the prototype's
// write-through cache plus bus snoop can, so application stores are issued
// through explicit CPU operations (WordWrite, with the write-through and
// logged attributes supplied by the virtual-memory layer). This preserves
// the paper's data path — store, bus, snoop, FIFO, DMA — while remaining
// portable; see DESIGN.md for the substitution rationale.
package machine

import (
	"math"
	"strconv"

	"lvm/internal/bus"
	"lvm/internal/cache"
	"lvm/internal/cycles"
	"lvm/internal/metrics"
	"lvm/internal/phys"
)

// LoggedWrite is one write operation observed on the bus with the "logged"
// tag asserted (Section 3.1: "a bus signal controlled by the page mapping
// associated with the address indicates whether the write operation is to
// be logged").
type LoggedWrite struct {
	Addr  phys.Addr // physical address of the write
	VAddr uint32    // virtual address (used by the on-chip logger of Section 4.6; 0 if unknown)
	Value uint32    // datum written
	Size  uint16    // size in bytes (1, 2 or 4)
	CPU   uint16    // issuing processor
	Time  uint64    // bus cycle at which the write completed
}

// LogDevice is the interface between the machine and a logging device.
// The prototype's bus logger (package hwlogger) and the next-generation
// on-chip logger (package tlblog) both satisfy it.
//
// A device tells the machine when it next has work due, so the machine
// calls it only then, as the logger of Section 3.1 runs on its own beside
// the CPUs. Both Snoop and PumpUntil return a wake cycle, and the machine
// keeps the least wake it has been told; it calls PumpUntil(t) only when
// t is past that wake.
// A wake may be too early, which costs one call that services nothing,
// but never too late, which would let a CPU take the bus ahead of due
// device work and move simulated cycles. Servicing and discarding only
// ever make a device's work due later, so DrainAll, a crash's discard or
// an overload drain need not report anything. A change of a device's
// configuration that can make its work due sooner (hwlogger's
// SetGroupCommit) must be followed by Machine.WakeLog, and AttachLog
// forgets any wake an earlier device reported.
type LogDevice interface {
	// Snoop delivers a logged write to the device. If the device must
	// stall the processors (FIFO overload in the prototype, write-buffer
	// stall on-chip), stallUntil is the cycle until which the issuing CPU
	// is stalled; otherwise it is w.Time. wake is the earliest cycle at
	// which PumpUntil could service something, if the write made that
	// earlier than the device last reported, and math.MaxUint64 if it did
	// not.
	Snoop(w LoggedWrite) (stallUntil, wake uint64)
	// PumpUntil lets the device perform any internal processing whose
	// service would begin before cycle t, acquiring the bus as needed, so
	// the device's DMA traffic interleaves with CPU traffic. It returns
	// the earliest cycle t' at which PumpUntil(t') could service anything
	// (math.MaxUint64 with nothing queued).
	PumpUntil(t uint64) (wake uint64)
	// DrainAll completes all pending device work and returns the cycle
	// at which the device went idle.
	DrainAll() uint64
}

// Config describes a machine.
type Config struct {
	// NumCPUs is the processor count (the prototype has four).
	NumCPUs int
	// MemFrames is the physical memory size in 4 KiB frames.
	MemFrames int
}

// DefaultConfig is the ParaDiGM prototype configuration with 64 MiB of
// physical memory.
func DefaultConfig() Config {
	return Config{NumCPUs: 4, MemFrames: 64 << 8} // 16384 frames = 64 MiB
}

// Machine is the simulated multiprocessor.
type Machine struct {
	Phys *phys.Memory
	Bus  *bus.Bus
	CPUs []*CPU

	// logDev is the attached log device (nil without one) and logWake
	// the least wake it has reported: pump calls it only past logWake
	// (see LogDevice). Without a device logWake is math.MaxUint64.
	logDev  LogDevice
	logWake uint64

	// Metrics is the machine's counter/histogram registry: one shard per
	// CPU plus a final shard for bus devices (the hardware logger).
	Metrics *metrics.Registry

	// watchAt/watchFn is a one-shot cycle watchpoint: the first time a CPU
	// clock reaches watchAt at a watch site (Compute, write-through
	// stores), watchFn fires once and the watch disarms. The fault
	// injector uses it to crash the machine at a chosen cycle. Disarmed,
	// watchAt is math.MaxUint64, so the check is a single predictable
	// compare; firing never adjusts any clock, so an armed (or disarmed)
	// watch cannot perturb cycle accounting.
	watchAt uint64
	watchFn func(c *CPU)
}

// New creates a machine. The log device, if any, is attached afterwards
// with AttachLog (the virtual-memory layer does this, since the logger's
// fault handling lives in the kernel).
func New(cfg Config) *Machine {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	if cfg.MemFrames <= 0 {
		cfg.MemFrames = 64 << 8
	}
	m := &Machine{
		Phys:    phys.NewMemory(cfg.MemFrames),
		Bus:     bus.New(),
		Metrics: metrics.New(cfg.NumCPUs + 1),
		logWake: math.MaxUint64,
		watchAt: disarmed,
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		m.CPUs = append(m.CPUs, &CPU{ID: i, D1: cache.NewL1(), m: m, MS: m.Metrics.Shard(i)})
	}
	m.Metrics.AddCollector(m.collectStats)
	return m
}

// AttachLog makes dev the machine's log device (nil detaches it). The
// next bus request calls the new device whatever the old one reported.
func (m *Machine) AttachLog(dev LogDevice) {
	m.logDev = dev
	m.logWake = 0
	if dev == nil {
		m.logWake = math.MaxUint64
	}
}

// WakeLog makes the next bus request call the log device: its
// configuration changed in a way that may make work due sooner than it
// last reported.
func (m *Machine) WakeLog() {
	if m.logDev != nil {
		m.logWake = 0
	}
}

// DeviceShard is the metrics shard bus devices (the hardware logger)
// charge their events to.
func (m *Machine) DeviceShard() *metrics.Shard {
	return m.Metrics.Shard(len(m.CPUs))
}

// collectStats publishes the per-CPU and per-cache stats the components
// already count in their own fields. Running at Snapshot time keeps the
// hot paths free of double accounting.
func (m *Machine) collectStats(emit func(name string, v uint64)) {
	var compute, stall, loads, stores, hits, misses, wbacks, sweeps, dirtyDropped uint64
	for i, c := range m.CPUs {
		p := "machine.cpu" + strconv.Itoa(i)
		emit(p+".compute_cycles", c.ComputeCycles)
		emit(p+".stall_cycles", c.StallCycles)
		emit(p+".loads", c.Loads)
		emit(p+".stores", c.Stores)
		compute += c.ComputeCycles
		stall += c.StallCycles
		loads += c.Loads
		stores += c.Stores
		hits += c.D1.Hits
		misses += c.D1.Misses
		wbacks += c.D1.Writebacks
		sweeps += c.D1.PageSweeps
		dirtyDropped += c.D1.SweepDirtyDropped
	}
	emit("machine.compute_cycles", compute)
	emit("machine.stall_cycles", stall)
	emit("machine.loads", loads)
	emit("machine.stores", stores)
	emit("cache.l1_hits", hits)
	emit("cache.l1_misses", misses)
	emit("cache.l1_writebacks", wbacks)
	emit("cache.page_sweeps", sweeps)
	emit("cache.sweep_dirty_dropped", dirtyDropped)
	emit("phys.frames_allocated", uint64(m.Phys.Allocated()))
}

// CPU is one simulated processor with its own cycle clock and on-chip data
// cache model.
type CPU struct {
	ID int
	// Now is this processor's cycle clock.
	Now uint64
	// D1 is the on-chip data cache cost model.
	D1 *cache.L1
	// MS is this CPU's metrics shard.
	MS *metrics.Shard
	m  *Machine

	// Stats.
	ComputeCycles uint64
	Loads         uint64
	Stores        uint64
	StallCycles   uint64
}

// Compute advances the CPU clock by n cycles of pure computation.
func (c *CPU) Compute(n uint64) {
	c.Now += n
	c.ComputeCycles += n
	if c.Now >= c.m.watchAt {
		c.m.fireWatch(c)
	}
}

// disarmed is watchAt with no watch set: no clock reaches it.
const disarmed = math.MaxUint64

// SetCycleWatch arms fn to fire once, the first time any CPU's clock
// reaches cycle t at a watch site. t == 0 disarms. Watch sites cover
// Compute and write-through stores — the paths every logged workload goes
// through — not the write-back store hit, which is the machine's hot path.
func (m *Machine) SetCycleWatch(t uint64, fn func(c *CPU)) {
	if t == 0 {
		t = disarmed
	}
	m.watchAt = t
	m.watchFn = fn
}

// fireWatch disarms the watch before invoking it, so a callback that
// panics (a simulated crash) or issues more work cannot re-enter. It is
// kept out of line: inlined, its body would push Compute past the
// inliner's budget.
//
//go:noinline
func (m *Machine) fireWatch(c *CPU) {
	fn := m.watchFn
	m.watchAt, m.watchFn = disarmed, nil
	if fn != nil {
		fn(c)
	}
}

// pump lets the log device claim bus slots that become serviceable before
// the CPU's next request. Until its wake the device has nothing it could
// service, so it is not called.
func (m *Machine) pump(t uint64) {
	if t > m.logWake {
		m.logWake = m.logDev.PumpUntil(t)
	}
}

// WordWrite performs one data write of the given size at physical address
// paddr, virtual address vaddr (carried for log devices that record
// virtual addresses, Section 4.6). writeThrough selects the on-chip cache
// mode for the page (the kernel puts logged pages in write-through mode,
// Section 3.2); logged asserts the bus "log this" tag.
//
// A write-through write costs 6 cycles (5 on the bus, Table 2). A
// write-back write is an L1 cache access: a hit costs 1 cycle; a miss
// fills the line from the second-level cache (9 cycles, 8 bus), first
// writing back a dirty victim if necessary (9 cycles, 8 bus).
func (c *CPU) WordWrite(paddr phys.Addr, vaddr uint32, value uint32, size uint16, writeThrough, logged bool) {
	c.Stores++
	if writeThrough {
		c.m.pump(c.Now)
		lead := uint64(cycles.WordWriteThroughTotal - cycles.WordWriteThroughBus)
		grant := c.m.Bus.Acquire(c.Now+lead, cycles.WordWriteThroughBus)
		done := grant + cycles.WordWriteThroughBus
		c.StallCycles += grant - (c.Now + lead)
		c.Now = done
		// Write-through, no allocate: the L1 is untouched and a cached
		// copy of the line stays clean, since the bus write updates memory.
		if logged && c.m.logDev != nil {
			stall, wake := c.m.logDev.Snoop(LoggedWrite{
				Addr: paddr, VAddr: vaddr, Value: value, Size: size,
				CPU: uint16(c.ID), Time: done,
			})
			c.m.logWake = min(c.m.logWake, wake)
			if stall > c.Now {
				c.StallCycles += stall - c.Now
				c.MS.Observe(metrics.HistStallCycles, stall-c.Now)
				c.Now = stall
			}
		}
		if c.Now >= c.m.watchAt {
			c.m.fireWatch(c)
		}
		return
	}
	// Fast path: a write-back hit costs exactly one cycle and touches no
	// bus, so skip the event plumbing entirely.
	if c.D1.StoreHit(paddr) {
		c.Now += cycles.L1HitCycles
	} else {
		c.chargeL1(c.D1.Access(paddr, true))
	}
	if logged && c.m.logDev != nil {
		// Write-back logged writes exist only with on-chip logging
		// support (Section 4.6): the CPU itself emits the record, so no
		// write-through is needed to make the write visible.
		stall, wake := c.m.logDev.Snoop(LoggedWrite{
			Addr: paddr, VAddr: vaddr, Value: value, Size: size,
			CPU: uint16(c.ID), Time: c.Now,
		})
		c.m.logWake = min(c.m.logWake, wake)
		if stall > c.Now {
			c.StallCycles += stall - c.Now
			c.MS.Observe(metrics.HistStallCycles, stall-c.Now)
			c.Now = stall
		}
	}
}

// WordRead performs one data read at paddr, charging L1/L2 costs.
func (c *CPU) WordRead(paddr phys.Addr) {
	c.Loads++
	if c.D1.LoadHit(paddr) {
		c.Now += cycles.L1HitCycles
		return
	}
	c.chargeL1(c.D1.Access(paddr, false))
}

func (c *CPU) chargeL1(ev cache.Event) {
	if ev.Hit {
		c.Now += cycles.L1HitCycles
		return
	}
	if ev.WritebackVictim {
		c.BlockWrite()
	}
	c.BlockRead()
	c.Now += cycles.L1HitCycles
}

// BlockRead charges one 16-byte block read from the second-level cache
// (9 cycles total, 8 bus).
func (c *CPU) BlockRead() {
	c.m.pump(c.Now)
	grant := c.m.Bus.Acquire(c.Now+uint64(cycles.BlockWriteTotal-cycles.BlockWriteBus), cycles.BlockWriteBus)
	c.Now = grant + cycles.BlockWriteBus
}

// BlockWrite charges one 16-byte block write to the second-level cache
// (9 cycles total, 8 bus).
func (c *CPU) BlockWrite() {
	c.m.pump(c.Now)
	grant := c.m.Bus.Acquire(c.Now+uint64(cycles.BlockWriteTotal-cycles.BlockWriteBus), cycles.BlockWriteBus)
	c.Now = grant + cycles.BlockWriteBus
}

// StallAll suspends every processor until cycle t (used by the kernel's
// logger-overload handling: "The kernel responds to the interrupt by
// suspending all processes that might be generating log data until the
// FIFOs drain", Section 3.1.3).
func (m *Machine) StallAll(t uint64) {
	for _, c := range m.CPUs {
		if c.Now < t {
			c.StallCycles += t - c.Now
			c.Now = t
		}
	}
}

// MaxNow returns the latest CPU clock, i.e. the machine's elapsed time.
func (m *Machine) MaxNow() uint64 {
	var mx uint64
	for _, c := range m.CPUs {
		if c.Now > mx {
			mx = c.Now
		}
	}
	return mx
}

// Drain completes all pending log-device work and returns the cycle at
// which the whole machine (CPUs and devices) went idle.
func (m *Machine) Drain() uint64 {
	idle := m.MaxNow()
	if m.logDev != nil {
		if t := m.logDev.DrainAll(); t > idle {
			idle = t
		}
	}
	return idle
}
