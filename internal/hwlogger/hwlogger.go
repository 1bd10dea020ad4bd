// Package hwlogger models the prototype's hardware logger: the FPGA device
// on the ParaDiGM bus that snoops write operations to logged segments and
// translates each into a 16-byte log record DMAed into a log segment
// (Section 3.1 and Figures 4–6 of the paper).
//
// Structure (Figure 5):
//
//	snoop → write FIFO → page-mapping-table lookup → log-table lookup →
//	log-record FIFO → DMA
//
// The page mapping table is a direct-mapped, TLB-like structure keyed by
// the 20-bit physical page number: the low 15 bits index the table, the
// top 5 bits are the tag (Section 3.1: "A physical page address is looked
// up in this table by splitting it into a tag (upper five bits) and index
// (lower 15 bits)"). Each entry names a log-table index; the log table
// holds one entry per log with the physical address at which the next
// record is written. Appending a record advances that address by 16; if it
// crosses a page boundary the entry is marked invalid and the next write
// to the log raises a logging fault for the kernel to resolve.
//
// The FIFOs hold 819 entries; when occupancy exceeds 512 the logger is
// "overloaded" and interrupts the kernel, which suspends all processes
// that might generate log data until the FIFOs drain (Section 3.1.3).
//
// The FIFO, the record DMA and the loss ledger are logcore.Core, shared
// with the on-chip logger of Section 4.6 (package tlblog).
package hwlogger

import (
	"encoding/binary"
	"math"

	"lvm/internal/bus"
	"lvm/internal/cycles"
	"lvm/internal/logcore"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"
)

// Mode selects how the logger materializes writes into the log segment
// (Section 2.6: record mode is the default; direct-mapped and indexed
// modes support output).
type Mode uint8

const (
	// ModeRecord appends a 16-byte record per write (the default).
	ModeRecord Mode = iota
	// ModeDirect writes the datum at the corresponding offset in the log
	// page ("the logged updates to a segment are written to the
	// corresponding offset in the log segment").
	ModeDirect
	// ModeIndexed appends just the data values, 4 bytes each, without
	// addresses or timestamps ("the log generates a sequence of data
	// values into the log segment").
	ModeIndexed
)

// PMT geometry.
const (
	pmtIndexBits = 15
	pmtEntries   = 1 << pmtIndexBits
	pmtIndexMask = pmtEntries - 1
)

// PMTEntry is one page-mapping-table entry: physical page → log index.
// Absorb is the page's absorb-enable attribute: writes to pages with the
// bit clear act as absorption barriers (Section 3.1's FIFO discussion
// proposes write absorption; marker-word pages must opt out so that
// transaction brackets are never coalesced away or reordered across).
type PMTEntry struct {
	Valid    bool
	Absorb   bool
	Tag      uint8 // top 5 bits of the 20-bit PPN
	LogIndex uint16
}

// LogTableEntry holds the next record address for one log.
type LogTableEntry struct {
	Valid bool
	Mode  Mode
	// Addr is the physical address at which the next record is written.
	// In ModeDirect it is the base of the log page mirroring the data
	// page and is never advanced.
	Addr phys.Addr
}

// FaultKind distinguishes the two logging-fault causes (Section 3.2).
type FaultKind uint8

const (
	// FaultMissingPMT: the written page has no (or a conflicting)
	// page-mapping-table entry.
	FaultMissingPMT FaultKind = iota
	// FaultInvalidLogAddr: the log-table entry is invalid, typically
	// because the log address just crossed a page boundary.
	FaultInvalidLogAddr
)

// Fault describes a logging fault delivered to the kernel.
type Fault struct {
	Kind FaultKind
	// PPN is the physical page number of the faulting write.
	PPN uint32
	// LogIndex is the log involved (valid for FaultInvalidLogAddr and
	// for FaultMissingPMT when the conflicting entry was valid).
	LogIndex uint16
	// Write is the logged write being serviced.
	Write machine.LoggedWrite
}

// FaultHandler is the kernel's logging-fault handler. It must repair the
// logger's tables (LoadPMT / SetLogHead) and return true, or return false
// to drop the record (the kernel "needs to be prepared to discard data",
// Section 3.2).
type FaultHandler func(l *Logger, f Fault) bool

// Logger is the hardware logger device. It satisfies machine.LogDevice.
// Its FIFO, record DMA and loss ledger are the shared logcore.Core; the
// rest is what the bus prototype adds: the physical-page tables and their
// faults, the overload interrupt, and the absorb, group-commit and
// output-mode extensions.
type Logger struct {
	logcore.Core

	// pmt models the 32 K-entry hardware table but is backed only up to
	// the highest index ever loaded: an index at or past len(pmt) reads as
	// the invalid entry the full table would hold there.
	pmt      []PMTEntry
	logTable []LogTableEntry

	// Write absorption (disabled when absorbWindow == 0): a snooped write
	// whose address matches a pending FIFO entry within the youngest
	// absorbWindow entries overwrites that entry's value instead of
	// enqueueing a new one. absorbBase is the absolute sequence number
	// (Core.Seq) below which entries may never be absorbed into — it is
	// raised past any write to a no-absorb page (a barrier), so coalescing
	// can never move a store across a transaction marker.
	absorbWindow int
	absorbBase   uint64
	// absorbSig is a host-side fast-miss filter: one bit per hashed word
	// address (addr>>2, mod 64) of every entry queued since the FIFO was
	// last empty. It is a superset of the absorbable window — a clear bit
	// proves no match and skips the scan; a set bit (possibly stale) just
	// falls through to the exact scan. It never changes simulated
	// behavior, only host time.
	absorbSig uint64

	// Group commit (disabled when groupSize <= 1): instead of DMAing each
	// record as soon as its lookup completes, the logger waits until
	// groupSize records are queued or the head record has waited
	// groupDeadline cycles, then drains the batch in one bus tenure —
	// one lookup + one DMA setup amortized over the batch.
	groupSize     int
	groupDeadline uint64

	// OnFault is the kernel's logging-fault handler.
	OnFault FaultHandler
	// OnOverload, if set, is invoked on each overload event with the
	// cycle at which the drain completed; it returns the cycle at which
	// the processors may resume (the kernel adds its software overhead).
	// If nil, the default adds cycles.OverloadKernelCycles.
	OnOverload func(drainedAt uint64) (resumeAt uint64)

	// Capacity and threshold, configurable for experiments; defaults are
	// the prototype's 819/512.
	Capacity  int
	Threshold int

	// Stats (records written and lost are on the Core's ledger).
	RecordsAbsorbed uint64
	GroupCommits    uint64
	Overloads       uint64
	Faults          uint64
	StallCycles     uint64
}

// fifoInitial is the host ring's starting size (see logcore.Core).
const fifoInitial = 32

// model is the bus logger's side of the shared core: records carry the
// physical address, each service starts with the 15-cycle table lookup,
// and the record DMA completes 18 cycles after its grant, 8 of them on
// the bus — 33 cycles per uncontended record.
var model = logcore.Model{
	Lead:  cycles.LoggerLookupCycles,
	Bus:   cycles.LogRecordDMABus,
	Tail:  cycles.LogRecordDMATotal - cycles.LogRecordDMABus,
	Ring:  fifoInitial,
	DMAed: metrics.HWRecordsDMAed,
	Lost:  metrics.HWRecordsLost,
}

// New creates a logger attached to the given bus and memory.
func New(b *bus.Bus, mem *phys.Memory) *Logger {
	return &Logger{
		Core:      logcore.New(b, mem, model),
		logTable:  make([]LogTableEntry, 256),
		Capacity:  cycles.LoggerFIFOEntries,
		Threshold: cycles.LoggerOverloadThreshold,
	}
}

// --- Kernel-facing table management (Section 3.2) ---

// LoadPMT installs a page-mapping-table entry for the given physical page,
// returning the entry it displaced (valid==false if none).
func (l *Logger) LoadPMT(ppn uint32, logIndex uint16) (displaced PMTEntry) {
	idx := int(ppn & pmtIndexMask)
	if idx >= len(l.pmt) {
		l.pmt = append(l.pmt, make([]PMTEntry, idx+1-len(l.pmt))...)
	}
	displaced = l.pmt[idx]
	l.pmt[idx] = PMTEntry{Valid: true, Absorb: true, Tag: uint8(ppn >> pmtIndexBits), LogIndex: logIndex}
	return displaced
}

// SetPMTAbsorb sets the absorb-enable attribute of ppn's page-mapping
// entry, if one is present. The kernel clears it for pages holding
// transaction marker words (see PMTEntry).
func (l *Logger) SetPMTAbsorb(ppn uint32, absorb bool) {
	if _, ok := l.LookupPMT(ppn); ok {
		l.pmt[ppn&pmtIndexMask].Absorb = absorb
	}
}

// SetAbsorbWindow configures write absorption: a snooped write may
// coalesce into a matching pending entry among the youngest n FIFO
// entries. n <= 0 disables absorption (the default, and the prototype's
// behaviour).
func (l *Logger) SetAbsorbWindow(n int) {
	if n < 0 {
		n = 0
	}
	l.absorbWindow = n
}

// SetGroupCommit configures batched DMA drains: records are held in the
// FIFO until n are queued or the oldest has waited deadline cycles,
// whichever comes first, then drained in one bus tenure. n <= 1 restores
// per-record DMA (the default). Durability fences (Sync, DrainAll,
// overload drains) still flush everything immediately. A smaller batch or
// deadline can make records due sooner than the logger last told its
// machine, so an attached logger's machine needs Machine.WakeLog after it.
func (l *Logger) SetGroupCommit(n int, deadline uint64) {
	if n < 1 {
		n = 1
	}
	l.groupSize = n
	l.groupDeadline = deadline
}

// LookupPMT reports the log index for ppn, if mapped.
func (l *Logger) LookupPMT(ppn uint32) (logIndex uint16, ok bool) {
	// The length guard stands in for the slice bounds check (a lookup
	// costs the compares it always did): an index never loaded misses.
	if idx := int(ppn & pmtIndexMask); idx < len(l.pmt) {
		if e := l.pmt[idx]; e.Valid && e.Tag == uint8(ppn>>pmtIndexBits) {
			return e.LogIndex, true
		}
	}
	return 0, false
}

// SetLogHead sets the next-record address (and mode) for a log.
func (l *Logger) SetLogHead(logIndex uint16, addr phys.Addr, mode Mode) {
	l.logTable[logIndex] = LogTableEntry{Valid: true, Mode: mode, Addr: addr}
}

// LogHead reports a log's table entry (for tests and the kernel).
func (l *Logger) LogHead(logIndex uint16) LogTableEntry { return l.logTable[logIndex] }

// NumLogs reports the log-table capacity.
func (l *Logger) NumLogs() int { return len(l.logTable) }

// --- machine.LogDevice ---

// Snoop accepts a logged write from the bus. When the combined FIFO
// occupancy exceeds the overload threshold, the logger interrupts the
// kernel, which suspends the processors until the FIFOs drain; Snoop
// models that by returning the resume cycle.
//
// A queued write can make work due sooner only when it becomes the head
// or completes the head's group; then Snoop returns the logger's wake,
// otherwise math.MaxUint64 (see machine.LogDevice). An absorbed write
// changes no arrival time, and an overload drains everything.
func (l *Logger) Snoop(w machine.LoggedWrite) (stallUntil, wake uint64) {
	ms := l.Shard()
	ms.Inc(metrics.HWSnoops)
	if l.absorbWindow > 0 {
		// A write to a page whose PMT entry is missing or has absorb
		// disabled is a barrier: no later write may coalesce into an
		// entry at or before it. Otherwise a clear signature bit proves
		// there is nothing to scan for.
		if l.absorbBarrier(w.Addr) {
			l.absorbBase = l.Seq() + uint64(l.Pending()) + 1
		} else if l.absorbSig&(1<<((w.Addr>>2)&63)) != 0 && l.tryAbsorb(&w) {
			l.RecordsAbsorbed++
			ms.Inc(metrics.HWRecordsAbsorbed)
			return w.Time, math.MaxUint64
		}
	}
	if l.Pending() == 0 {
		l.absorbSig = 0
	}
	l.absorbSig |= 1 << ((uint32(w.Addr) >> 2) & 63)
	// A FIFO at Capacity cannot happen with threshold < capacity, but an
	// experiment that disables overloads drops (on the ledger) here.
	l.Push(&w, l.Capacity)
	depth := uint64(l.Pending())
	ms.Observe(metrics.HistFIFODepth, depth)
	ms.SetMax(metrics.HWFIFOHighWater, depth)
	if l.Pending() < l.Threshold {
		if n := l.Pending(); n == 1 || n == l.groupSize {
			return w.Time, l.wake()
		}
		return w.Time, math.MaxUint64
	}
	l.Overloads++
	ms.Inc(metrics.HWOverloads)
	drained := l.DrainAll()
	resume := drained + cycles.OverloadKernelCycles
	if l.OnOverload != nil {
		resume = l.OnOverload(drained)
	}
	if resume > w.Time {
		l.StallCycles += resume - w.Time
		ms.Add(metrics.HWOverloadDrainCycles, resume-w.Time)
	}
	l.Tracer().Emit(w.Time, metrics.EvOverload, int(w.CPU), drained, resume)
	return resume, math.MaxUint64
}

// absorbBarrier reports whether a write to addr is an absorption
// barrier: its page has no PMT entry (an index never loaded is a miss) or
// the entry has absorb disabled. It is LookupPMT's test plus the Absorb
// bit, small enough to inline into Snoop.
func (l *Logger) absorbBarrier(addr phys.Addr) bool {
	ppn := phys.PPN(addr)
	if idx := int(ppn & pmtIndexMask); idx < len(l.pmt) {
		e := l.pmt[idx]
		return !e.Valid || !e.Absorb || e.Tag != uint8(ppn>>pmtIndexBits)
	}
	return true
}

// tryAbsorb attempts to coalesce w, a write to an absorb-enabled page,
// into a pending FIFO entry: the youngest absorbWindow entries are scanned
// newest-first for a matching address and size, bounded below by the head
// and by absorbBase (the last barrier).
func (l *Logger) tryAbsorb(w *machine.LoggedWrite) bool {
	top := l.Seq() + uint64(l.Pending())
	floor := max(l.Seq(), l.absorbBase)
	if floor >= top {
		return false
	}
	// Newest first, down to the window or the floor.
	for i, n := l.Pending()-1, min(int(top-floor), l.absorbWindow); n > 0; i, n = i-1, n-1 {
		if fe := l.At(i); fe.Addr == w.Addr && fe.Size == w.Size {
			// Keep the original entry's position and timestamp; only the
			// datum changes — exactly what a hardware FIFO cell rewrite
			// would do.
			fe.Value = w.Value
			return true
		}
	}
	return false
}

// PumpUntil services queued writes whose DMA would request the bus before
// cycle t (the arrival time of the next competing bus request; see
// logcore.Core.Due) and returns the logger's wake.
//
// Under group commit a record additionally waits until its batch is ready:
// either groupSize records are queued, or the head record has aged
// groupDeadline cycles.
func (l *Logger) PumpUntil(t uint64) (wake uint64) {
	if l.groupSize > 1 {
		for l.Pending() > 0 {
			start := l.groupStart()
			if start+cycles.LoggerLookupCycles >= t {
				break
			}
			l.serviceBatch(start, false)
		}
	} else {
		for l.Due(t) {
			l.serviceOne()
		}
	}
	return l.wake()
}

// groupStart is when the head's batch can begin service under group
// commit: once the logger is free and the batch is ready, at the earlier
// of "groupSize records queued" (the arrival of the Nth) and "the head
// aged out".
func (l *Logger) groupStart() uint64 {
	ready := l.At(0).Time + l.groupDeadline
	if l.Pending() >= l.groupSize {
		ready = min(ready, l.At(l.groupSize-1).Time)
	}
	return max(l.FreeAt(), ready)
}

// wake is the earliest cycle t at which PumpUntil(t) services anything:
// the head's (or its batch's) service start plus the table lookup, or
// math.MaxUint64 with nothing queued.
func (l *Logger) wake() uint64 {
	if l.groupSize <= 1 || l.Pending() == 0 {
		return l.Wake()
	}
	return l.groupStart() + cycles.LoggerLookupCycles
}

// DrainAll services everything queued and returns the idle cycle.
func (l *Logger) DrainAll() uint64 {
	for l.Pending() > 0 {
		if l.groupSize > 1 {
			l.serviceBatch(l.Start(l.At(0)), true)
		} else {
			l.serviceOne()
		}
	}
	return l.FreeAt()
}

// fault raises a logging fault to the kernel at cycle at and reports
// whether the kernel repaired the tables.
func (l *Logger) fault(f Fault, counter metrics.ID, at uint64) bool {
	l.Faults++
	l.Shard().Inc(counter)
	l.Tracer().Emit(at, metrics.EvLoggingFault, int(f.Write.CPU), uint64(f.Kind), uint64(f.PPN))
	return l.OnFault != nil && l.OnFault(l, f)
}

// route finds e's log-table entry: a PMT lookup, then a log-table lookup,
// either of which may raise a logging fault the kernel must repair, each
// costing LoggingFaultCycles from start. It returns the entry (nil when
// the record is lost) and the cycle at which service continues.
func (l *Logger) route(e *machine.LoggedWrite, start uint64) (*LogTableEntry, uint64) {
	ppn := phys.PPN(e.Addr)
	logIndex, ok := l.LookupPMT(ppn)
	if !ok {
		repaired := l.fault(Fault{Kind: FaultMissingPMT, PPN: ppn, Write: *e}, metrics.HWLoggingFaultsPMT, start)
		start += cycles.LoggingFaultCycles
		if !repaired {
			return nil, start
		}
		if logIndex, ok = l.LookupPMT(ppn); !ok {
			return nil, start
		}
	}
	if lt := &l.logTable[logIndex]; lt.Valid {
		return lt, start
	}
	repaired := l.fault(Fault{Kind: FaultInvalidLogAddr, PPN: ppn, LogIndex: logIndex, Write: *e}, metrics.HWLoggingFaultsLogAddr, start)
	start += cycles.LoggingFaultCycles
	if lt := &l.logTable[logIndex]; repaired && lt.Valid {
		return lt, start
	}
	return nil, start
}

// advance moves a log's head past n bytes; a head that reaches a page
// boundary invalidates itself, so the log's next write faults.
func (lt *LogTableEntry) advance(n phys.Addr) {
	if n == 0 {
		return
	}
	lt.Addr += n
	if lt.Addr&phys.PageMask == 0 {
		lt.Valid = false
	}
}

// serviceOne processes the FIFO head: PMT lookup, log-table lookup, record
// assembly, and DMA, raising logging faults to the kernel as needed.
func (l *Logger) serviceOne() {
	e := l.Pop()
	lt, start := l.route(&e, l.Start(&e))
	if lt == nil {
		l.Lose()
		l.Finish(start)
		return
	}
	wait, complete := l.Transfer(start, 1)
	l.Shard().Add(metrics.HWDMAWaitCycles, wait)
	switch lt.Mode {
	case ModeRecord:
		if l.Put(&e, lt.Addr) {
			lt.advance(logrec.Size)
		}
	case ModeDirect:
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], e.Value)
		l.Memory().Write(lt.Addr+(e.Addr&phys.PageMask), buf[:min(int(e.Size), 4)])
		l.Written(1)
	case ModeIndexed:
		l.Memory().Write32(lt.Addr, e.Value)
		lt.advance(4)
		l.Written(1)
	}
	l.Finish(complete)
}

// serviceBatch drains up to groupSize FIFO-head records as one group
// commit beginning at cycle start: one PMT + log-table lookup for the
// whole batch, one DMA setup, and one bus tenure of n×LogRecordDMABus
// cycles. The batch ends at the first record that routes to a different
// log, would cross the log page boundary, or — unless drain is set —
// arrived after start. A drain (Sync, overload, crash capture) flushes
// everything queued, so it batches regardless of arrival time but cannot
// begin before its youngest member arrived. A head record that needs
// fault handling — or a non-record-mode log — falls back to the
// per-record path, which charges the full fault cost.
func (l *Logger) serviceBatch(start uint64, drain bool) {
	head := l.At(0)
	ppn := phys.PPN(head.Addr)
	logIndex, ok := l.LookupPMT(ppn)
	if !ok {
		l.serviceOne()
		return
	}
	lt := &l.logTable[logIndex]
	if !lt.Valid || lt.Mode != ModeRecord {
		l.serviceOne()
		return
	}
	room := int((phys.PageSize - uint32(lt.Addr&phys.PageMask)) / logrec.Size)
	n := 1
	oldest, youngest := head.Time, head.Time
	for n < l.groupSize && n < l.Pending() && n < room {
		e := l.At(n)
		if !drain && e.Time > start {
			break
		}
		// The tables hold still during a batch, so a record on the page
		// of the one before it routes the same way.
		if p := phys.PPN(e.Addr); p != ppn {
			if li, ok2 := l.LookupPMT(p); !ok2 || li != logIndex {
				break
			}
			ppn = p
		}
		youngest = max(youngest, e.Time)
		n++
	}
	start = max(start, youngest)

	wait, complete := l.Transfer(start, n)
	l.Shard().Add(metrics.HWDMAWaitCycles, wait)
	lt.advance(l.PutRun(n, lt.Addr))
	l.GroupCommits++
	ms := l.Shard()
	ms.Inc(metrics.HWGroupCommits)
	ms.Observe(metrics.HistBatchSize, uint64(n))
	ms.Observe(metrics.HistCommitLatency, complete-oldest)
	l.Finish(complete)
}
