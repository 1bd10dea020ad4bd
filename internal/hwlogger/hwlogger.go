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
package hwlogger

import (
	"lvm/internal/bus"
	"lvm/internal/cycles"
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
type Logger struct {
	bus *bus.Bus
	mem *phys.Memory

	// pmt models the 32 K-entry hardware table but is backed only up to
	// the highest index ever loaded: an index at or past len(pmt) reads as
	// the invalid entry the full table would hold there.
	pmt      []PMTEntry
	logTable []LogTableEntry

	// fifo is the combined occupancy of the write FIFO and log-record
	// FIFO (entries not yet DMAed): a ring that starts at fifoInitial
	// entries and doubles, up to Capacity, whenever a push finds it full.
	// It grows only to the run's high-water mark, so steady-state pushes
	// and pops never allocate; the modelled capacity is Capacity alone.
	fifo     []machine.LoggedWrite
	fifoHead int
	fifoLen  int

	// Write absorption (disabled when absorbWindow == 0): a snooped write
	// whose address matches a pending FIFO entry within the youngest
	// absorbWindow entries overwrites that entry's value instead of
	// enqueueing a new one. headSeq is the absolute (monotonic) sequence
	// number of the FIFO head entry; absorbBase is the absolute sequence
	// below which entries may never be absorbed into — it is raised past
	// any write to a no-absorb page (a barrier), so coalescing can never
	// move a store across a transaction marker.
	absorbWindow int
	headSeq      uint64
	absorbBase   uint64
	// absorbSig is a host-side fast-miss filter: one bit per hashed word
	// address (addr>>2, mod 64) of every entry currently queued. It is a
	// superset of the absorbable window — a clear bit proves no match and
	// skips the scan; a set bit (possibly stale) just falls through to
	// the exact scan. Cleared whenever the ring empties. It never changes
	// simulated behavior, only host time.
	absorbSig uint64

	// Group commit (disabled when groupSize <= 1): instead of DMAing each
	// record as soon as its lookup completes, the logger waits until
	// groupSize records are queued or the head record has waited
	// groupDeadline cycles, then drains the batch in one bus tenure —
	// one lookup + one DMA setup amortized over the batch.
	groupSize     int
	groupDeadline uint64

	// freeAt is when the logger engine finishes its current service.
	freeAt uint64

	// OnFault is the kernel's logging-fault handler.
	OnFault FaultHandler
	// OnOverload, if set, is invoked on each overload event with the
	// cycle at which the drain completed; it returns the cycle at which
	// the processors may resume (the kernel adds its software overhead).
	// If nil, the default adds cycles.OverloadKernelCycles.
	OnOverload func(drainedAt uint64) (resumeAt uint64)

	// DMAHook, when non-nil, observes each record-mode DMA just before the
	// 16-byte record reaches memory at dst. The hook may mutate the record
	// (bit corruption) or return drop=true to lose it entirely (the drop
	// is tallied through the normal lost-record accounting). It is the
	// fault injector's insertion point; nil (the default) costs the DMA
	// path one predictable branch.
	DMAHook func(rec *logrec.Record, dst phys.Addr) (drop bool)
	// hookRec is the scratch record handed to DMAHook: hooks mutate it in
	// place, and keeping it on the Logger (rather than taking the address
	// of a local) keeps the record-mode DMA path allocation-free.
	hookRec logrec.Record

	// Capacity and threshold, configurable for experiments; defaults are
	// the prototype's 819/512.
	Capacity  int
	Threshold int

	// Stats.
	RecordsWritten  uint64
	RecordsLost     uint64
	RecordsAbsorbed uint64
	GroupCommits    uint64
	Overloads       uint64
	Faults          uint64
	StallCycles     uint64

	// ms is the metrics shard the logger charges hardware events to; tr
	// is the (possibly nil) event tracer. New installs a bare private
	// shard (no registry, no trace ring) so increments never need a nil
	// check; SetMetrics rebinds both to the owning machine's registry.
	ms *metrics.Shard
	tr *metrics.Tracer
}

// fifoInitial is the host ring's starting size (see Logger.fifo).
const fifoInitial = 32

// New creates a logger attached to the given bus and memory.
func New(b *bus.Bus, mem *phys.Memory) *Logger {
	return &Logger{
		bus:       b,
		mem:       mem,
		logTable:  make([]LogTableEntry, 256),
		fifo:      make([]machine.LoggedWrite, fifoInitial),
		Capacity:  cycles.LoggerFIFOEntries,
		Threshold: cycles.LoggerOverloadThreshold,
		ms:        new(metrics.Shard),
	}
}

// SetMetrics points the logger's hardware-event counters at sh (typically
// the machine's device shard) and its trace emissions at tr (may be nil).
func (l *Logger) SetMetrics(sh *metrics.Shard, tr *metrics.Tracer) {
	if sh != nil {
		l.ms = sh
	}
	l.tr = tr
}

// Pending reports the current combined FIFO occupancy.
func (l *Logger) Pending() int { return l.fifoLen }

// FreeAt reports when the logger engine is next idle.
func (l *Logger) FreeAt() uint64 { return l.freeAt }

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

// AbsorbWindow reports the configured absorption window.
func (l *Logger) AbsorbWindow() int { return l.absorbWindow }

// SetGroupCommit configures batched DMA drains: records are held in the
// FIFO until n are queued or the oldest has waited deadline cycles,
// whichever comes first, then drained in one bus tenure. n <= 1 restores
// per-record DMA (the default). Durability fences (Sync, DrainAll,
// overload drains) still flush everything immediately.
func (l *Logger) SetGroupCommit(n int, deadline uint64) {
	if n < 1 {
		n = 1
	}
	l.groupSize = n
	l.groupDeadline = deadline
}

// InvalidatePMT removes the entry for ppn if it maps that page.
func (l *Logger) InvalidatePMT(ppn uint32) {
	if _, ok := l.LookupPMT(ppn); ok {
		l.pmt[ppn&pmtIndexMask].Valid = false
	}
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

// InvalidateLog marks a log-table entry invalid.
func (l *Logger) InvalidateLog(logIndex uint16) { l.logTable[logIndex].Valid = false }

// LogHead reports a log's table entry (for tests and the kernel).
func (l *Logger) LogHead(logIndex uint16) LogTableEntry { return l.logTable[logIndex] }

// NumLogs reports the log-table capacity.
func (l *Logger) NumLogs() int { return len(l.logTable) }

// --- machine.LogDevice ---

// Snoop accepts a logged write from the bus. When the combined FIFO
// occupancy exceeds the overload threshold, the logger interrupts the
// kernel, which suspends the processors until the FIFOs drain; Snoop
// models that by returning the resume cycle.
func (l *Logger) Snoop(w machine.LoggedWrite) (stallUntil uint64) {
	if l.absorbWindow > 0 && l.tryAbsorb(&w) {
		l.RecordsAbsorbed++
		l.ms.Inc(metrics.HWSnoops)
		l.ms.Inc(metrics.HWRecordsAbsorbed)
		return w.Time
	}
	l.push(&w)
	l.ms.Inc(metrics.HWSnoops)
	l.ms.Observe(metrics.HistFIFODepth, uint64(l.fifoLen))
	l.ms.SetMax(metrics.HWFIFOHighWater, uint64(l.fifoLen))
	if l.Pending() >= l.Threshold {
		l.Overloads++
		l.ms.Inc(metrics.HWOverloads)
		drained := l.DrainAll()
		resume := drained + cycles.OverloadKernelCycles
		if l.OnOverload != nil {
			resume = l.OnOverload(drained)
		}
		if resume > w.Time {
			l.StallCycles += resume - w.Time
			l.ms.Add(metrics.HWOverloadDrainCycles, resume-w.Time)
		}
		l.tr.Emit(w.Time, metrics.EvOverload, int(w.CPU), drained, resume)
		return resume
	}
	return w.Time
}

// tryAbsorb attempts to coalesce w into a pending FIFO entry: the youngest
// absorbWindow entries are scanned newest-first for a matching address and
// size, bounded below by the head and by absorbBase (the last barrier).
// A write to a page whose PMT entry is missing or has absorb disabled is a
// barrier: it raises absorbBase past itself so no later write can coalesce
// into an entry at or before it.
func (l *Logger) tryAbsorb(w *machine.LoggedWrite) bool {
	// LookupPMT's test plus the Absorb bit, spelled out so the hit path
	// stays straight-line (an index never loaded is a miss: a barrier).
	ppn := phys.PPN(w.Addr)
	idx := int(ppn & pmtIndexMask)
	if idx >= len(l.pmt) || !l.pmt[idx].Valid || !l.pmt[idx].Absorb || l.pmt[idx].Tag != uint8(ppn>>pmtIndexBits) {
		l.absorbBase = l.headSeq + uint64(l.fifoLen) + 1
		return false
	}
	if l.absorbSig&(1<<((uint32(w.Addr)>>2)&63)) == 0 {
		return false
	}
	top := l.headSeq + uint64(l.fifoLen)
	floor := l.headSeq
	if l.absorbBase > floor {
		floor = l.absorbBase
	}
	if floor >= top {
		return false
	}
	count := int(top - floor)
	if count > l.absorbWindow {
		count = l.absorbWindow
	}
	// Walk ring slots directly, newest first.
	i := l.fifoHead + l.fifoLen - 1
	if i >= len(l.fifo) {
		i -= len(l.fifo)
	}
	for ; count > 0; count-- {
		fe := &l.fifo[i]
		if fe.Addr == w.Addr && fe.Size == w.Size {
			// Keep the original entry's position and timestamp; only the
			// datum changes — exactly what a hardware FIFO cell rewrite
			// would do.
			fe.Value = w.Value
			return true
		}
		i--
		if i < 0 {
			i = len(l.fifo) - 1
		}
	}
	return false
}

// PumpUntil services queued writes whose DMA would request the bus before
// cycle t (the arrival time of the next competing bus request). Records
// whose bus request would come later wait their turn: arbitration is
// first-come-first-served by request time, so the logger does not reserve
// future bus slots ahead of an earlier CPU request.
//
// Under group commit a record additionally waits until its batch is ready:
// either groupSize records are queued, or the head record has aged
// groupDeadline cycles.
func (l *Logger) PumpUntil(t uint64) {
	if l.groupSize > 1 {
		l.pumpGrouped(t)
		return
	}
	for l.Pending() > 0 {
		start := l.freeAt
		if e := l.fifo[l.fifoHead]; e.Time > start {
			start = e.Time
		}
		if start+cycles.LoggerLookupCycles >= t {
			return
		}
		l.serviceOne()
	}
}

func (l *Logger) pumpGrouped(t uint64) {
	for l.Pending() > 0 {
		head := &l.fifo[l.fifoHead]
		// The batch is ready at the earlier of "groupSize records queued"
		// (the arrival of the Nth) and "the head aged out".
		ready := head.Time + l.groupDeadline
		if l.fifoLen >= l.groupSize {
			if nt := l.nthTime(l.groupSize - 1); nt < ready {
				ready = nt
			}
		}
		start := l.freeAt
		if ready > start {
			start = ready
		}
		if start+cycles.LoggerLookupCycles >= t {
			return
		}
		l.serviceBatch(start, false)
	}
}

// nthTime returns the snoop time of the i-th queued entry (0 = head).
func (l *Logger) nthTime(i int) uint64 {
	idx := l.fifoHead + i
	if idx >= len(l.fifo) {
		idx -= len(l.fifo)
	}
	return l.fifo[idx].Time
}

// DrainAll services everything queued and returns the idle cycle.
func (l *Logger) DrainAll() uint64 {
	for l.Pending() > 0 {
		if l.groupSize > 1 {
			start := l.freeAt
			if e := l.fifo[l.fifoHead]; e.Time > start {
				start = e.Time
			}
			l.serviceBatch(start, true)
		} else {
			l.serviceOne()
		}
	}
	return l.freeAt
}

func (l *Logger) push(w *machine.LoggedWrite) {
	if l.fifoLen >= l.Capacity {
		// Cannot happen with threshold < capacity, but never lose the
		// accounting if an experiment disables overloads.
		l.recordLost()
		return
	}
	l.absorbSig |= 1 << ((uint32(w.Addr) >> 2) & 63)
	if l.fifoLen == 0 {
		// Empty ring: rewind so the common drained-between-stores case
		// keeps reusing the same few slots instead of streaming through
		// the whole ring (which evicts it from the host's L1).
		l.fifoHead = 0
		l.fifo[0] = *w
		l.fifoLen = 1
		return
	}
	if l.fifoLen == len(l.fifo) {
		// The ring is full below Capacity: re-linearize into one twice
		// the size (clamped to Capacity, which experiments may raise
		// after New).
		grown := make([]machine.LoggedWrite, min(2*len(l.fifo), l.Capacity))
		n := copy(grown, l.fifo[l.fifoHead:])
		copy(grown[n:], l.fifo[:l.fifoHead])
		l.fifo = grown
		l.fifoHead = 0
	}
	idx := l.fifoHead + l.fifoLen
	if idx >= len(l.fifo) {
		idx -= len(l.fifo)
	}
	l.fifo[idx] = *w
	l.fifoLen++
}

func (l *Logger) pop() machine.LoggedWrite {
	w := l.fifo[l.fifoHead]
	l.fifoHead++
	if l.fifoHead == len(l.fifo) {
		l.fifoHead = 0
	}
	l.fifoLen--
	l.headSeq++
	if l.fifoLen == 0 {
		l.absorbSig = 0
	}
	return w
}

// serviceOne processes the FIFO head: PMT lookup, log-table lookup, record
// assembly, and DMA, raising logging faults to the kernel as needed.
func (l *Logger) serviceOne() {
	e := l.pop()
	start := l.freeAt
	if e.Time > start {
		start = e.Time
	}

	ppn := phys.PPN(e.Addr)
	logIndex, ok := l.LookupPMT(ppn)
	if !ok {
		l.Faults++
		l.ms.Inc(metrics.HWLoggingFaultsPMT)
		l.tr.Emit(start, metrics.EvLoggingFault, int(e.CPU), uint64(FaultMissingPMT), uint64(ppn))
		start += cycles.LoggingFaultCycles
		if l.OnFault == nil || !l.OnFault(l, Fault{Kind: FaultMissingPMT, PPN: ppn, Write: e}) {
			l.recordLost()
			l.freeAt = start
			return
		}
		logIndex, ok = l.LookupPMT(ppn)
		if !ok {
			l.recordLost()
			l.freeAt = start
			return
		}
	}
	lt := &l.logTable[logIndex]
	if !lt.Valid {
		l.Faults++
		l.ms.Inc(metrics.HWLoggingFaultsLogAddr)
		l.tr.Emit(start, metrics.EvLoggingFault, int(e.CPU), uint64(FaultInvalidLogAddr), uint64(ppn))
		start += cycles.LoggingFaultCycles
		if l.OnFault == nil || !l.OnFault(l, Fault{Kind: FaultInvalidLogAddr, PPN: ppn, LogIndex: logIndex, Write: e}) {
			l.recordLost()
			l.freeAt = start
			return
		}
		lt = &l.logTable[logIndex]
		if !lt.Valid {
			l.recordLost()
			l.freeAt = start
			return
		}
	}

	// Internal lookup/assembly time, then the DMA. The DMA holds the bus
	// for LogRecordDMABus cycles and completes LogRecordDMATotal cycles
	// after it begins, so one uncontended record service costs
	// LoggerLookupCycles + LogRecordDMATotal = 33 cycles.
	dmaReady := start + cycles.LoggerLookupCycles
	grant := l.bus.Acquire(dmaReady, cycles.LogRecordDMABus)
	complete := grant + cycles.LogRecordDMATotal
	l.ms.Add(metrics.HWDMAWaitCycles, grant-dmaReady)

	switch lt.Mode {
	case ModeRecord:
		rec := logrec.Record{
			Addr:      e.Addr,
			Value:     e.Value,
			WriteSize: e.Size,
			CPU:       e.CPU,
			Timestamp: cycles.ToTimestamp(e.Time),
		}
		if l.DMAHook != nil {
			l.hookRec = rec
			if l.DMAHook(&l.hookRec, lt.Addr) {
				// The DMA transfer was lost: the head does not advance,
				// so later records close the gap and the log stays dense.
				l.recordLost()
				l.freeAt = complete
				return
			}
			rec = l.hookRec
		}
		var buf [logrec.Size]byte
		rec.Encode(buf[:])
		l.mem.WriteBlock16(lt.Addr, &buf)
		lt.Addr += logrec.Size
		if lt.Addr&phys.PageMask == 0 {
			lt.Valid = false
		}
	case ModeDirect:
		dst := lt.Addr + (e.Addr & phys.PageMask)
		var buf [4]byte
		n := int(e.Size)
		if n > 4 {
			n = 4
		}
		for i := 0; i < n; i++ {
			buf[i] = byte(e.Value >> (8 * i))
		}
		l.mem.Write(dst, buf[:n])
	case ModeIndexed:
		l.mem.Write32(lt.Addr, e.Value)
		lt.Addr += 4
		if lt.Addr&phys.PageMask == 0 {
			lt.Valid = false
		}
	}
	l.RecordsWritten++
	l.ms.Inc(metrics.HWRecordsDMAed)
	l.freeAt = complete
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
	head := &l.fifo[l.fifoHead]
	logIndex, ok := l.LookupPMT(phys.PPN(head.Addr))
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
	youngest := head.Time
	for n < l.groupSize && n < l.fifoLen && n < room {
		idx := l.fifoHead + n
		if idx >= len(l.fifo) {
			idx -= len(l.fifo)
		}
		e := &l.fifo[idx]
		if !drain && e.Time > start {
			break
		}
		if li, ok2 := l.LookupPMT(phys.PPN(e.Addr)); !ok2 || li != logIndex {
			break
		}
		if e.Time > youngest {
			youngest = e.Time
		}
		n++
	}
	if youngest > start {
		start = youngest
	}

	// One lookup, then one DMA transfer of n records: the bus is held for
	// n×LogRecordDMABus cycles, and the transfer completes one DMA setup
	// (LogRecordDMATotal − LogRecordDMABus cycles) after the grant plus
	// the bus time. For n == 1 this is exactly the per-record cost.
	dmaReady := start + cycles.LoggerLookupCycles
	busCycles := uint32(n) * cycles.LogRecordDMABus
	grant := l.bus.Acquire(dmaReady, busCycles)
	complete := grant + (cycles.LogRecordDMATotal - cycles.LogRecordDMABus) + uint64(busCycles)
	l.ms.Add(metrics.HWDMAWaitCycles, grant-dmaReady)

	oldest := head.Time
	frame := l.mem.Frame(phys.PPN(lt.Addr))
	off := int(lt.Addr & phys.PageMask)
	written := 0
	if l.DMAHook == nil {
		// Fast path: encode straight out of the ring and advance the head
		// once for the whole batch.
		idx := l.fifoHead
		for i := 0; i < n; i++ {
			e := &l.fifo[idx]
			rec := logrec.Record{
				Addr:      e.Addr,
				Value:     e.Value,
				WriteSize: e.Size,
				CPU:       e.CPU,
				Timestamp: cycles.ToTimestamp(e.Time),
			}
			rec.Encode(frame[off+written : off+written+logrec.Size])
			written += logrec.Size
			idx++
			if idx == len(l.fifo) {
				idx = 0
			}
		}
		l.fifoHead = idx
		l.fifoLen -= n
		l.headSeq += uint64(n)
		if l.fifoLen == 0 {
			l.absorbSig = 0
		}
		l.RecordsWritten += uint64(n)
		l.ms.Add(metrics.HWRecordsDMAed, uint64(n))
	} else {
		for i := 0; i < n; i++ {
			e := l.pop()
			rec := logrec.Record{
				Addr:      e.Addr,
				Value:     e.Value,
				WriteSize: e.Size,
				CPU:       e.CPU,
				Timestamp: cycles.ToTimestamp(e.Time),
			}
			l.hookRec = rec
			if l.DMAHook(&l.hookRec, lt.Addr+phys.Addr(written)) {
				// This record's transfer was lost: the later batch members
				// close the gap so the log stays dense.
				l.recordLost()
				continue
			}
			rec = l.hookRec
			rec.Encode(frame[off+written : off+written+logrec.Size])
			written += logrec.Size
			l.RecordsWritten++
			l.ms.Inc(metrics.HWRecordsDMAed)
		}
	}
	if written > 0 {
		lt.Addr += phys.Addr(written)
		if lt.Addr&phys.PageMask == 0 {
			lt.Valid = false
		}
	}
	l.GroupCommits++
	l.ms.Inc(metrics.HWGroupCommits)
	l.ms.Observe(metrics.HistBatchSize, uint64(n))
	l.ms.Observe(metrics.HistCommitLatency, complete-oldest)
	l.freeAt = complete
}

// recordLost tallies a dropped record in both the legacy stats field and
// the metrics shard.
func (l *Logger) recordLost() {
	l.RecordsLost++
	l.ms.Inc(metrics.HWRecordsLost)
}

// PendingWrites visits every FIFO entry not yet DMAed, oldest first,
// without consuming them (crash forensics: the fault injector captures
// the in-flight writes a power loss would destroy).
func (l *Logger) PendingWrites(fn func(w machine.LoggedWrite)) {
	for i := 0; i < l.fifoLen; i++ {
		idx := l.fifoHead + i
		if idx >= len(l.fifo) {
			idx -= len(l.fifo)
		}
		fn(l.fifo[idx])
	}
}

// DiscardPending empties the FIFOs without DMAing the queued records,
// modeling the loss of the volatile FIFO chips at a crash. It returns the
// number of entries discarded; the caller (the fault injector) owns the
// accounting of what was lost.
func (l *Logger) DiscardPending() int {
	n := l.fifoLen
	l.headSeq += uint64(n)
	l.absorbBase = l.headSeq
	l.absorbSig = 0
	l.fifoLen = 0
	l.fifoHead = 0
	return n
}
