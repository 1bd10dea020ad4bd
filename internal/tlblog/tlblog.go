// Package tlblog models the next-generation, on-chip logging hardware of
// Section 4.6 of the paper: "A processor designed to support logging could
// tag cache blocks to be logged either in the cache tags or in the TLB
// entries... TLB entries are extended to contain a log table index and the
// log table is stored inside the CPU."
//
// Differences from the prototype bus logger (package hwlogger):
//
//   - Records carry the *virtual* address of the write, so per-region
//     logging works directly and no reverse translation is needed.
//   - There are no large FIFOs and no overload interrupt: "the processor
//     is automatically stalled if there is an excessive level of write
//     activity to a logged region, the same as if it is writing rapidly to
//     a write-through region." We model a small on-chip write buffer; when
//     it is full the CPU stalls until a slot frees.
//   - There is no table-lookup latency: the TLB and log descriptor table
//     are on-chip, so a record's service cost is just its memory write
//     (one 16-byte block, 9 cycles / 8 bus).
//
// With this support "the cost of logged writes should be essentially the
// same as unlogged writes (except for the bus overhead of the log
// records)" — the ablation benchmark BenchmarkAblationLoggerModels
// verifies exactly that against the prototype model.
package tlblog

import (
	"lvm/internal/bus"
	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"
)

// DefaultWriteBuffer is the modeled on-chip write-buffer depth.
const DefaultWriteBuffer = 8

// Descriptor is one entry of the on-chip log descriptor table (Figure 13).
type Descriptor struct {
	Valid bool
	// Addr is the physical address at which the next record is written.
	Addr phys.Addr
	// Limit is the end of the space currently provided for this log;
	// reaching it invokes OnFull.
	Limit phys.Addr
}

// Logger is the on-chip logging unit. It satisfies machine.LogDevice.
type Logger struct {
	bus *bus.Bus
	mem *phys.Memory

	// tlb maps virtual page number -> log descriptor index. (A real TLB
	// is a cache over page tables; the map stands in for the whole
	// table walk since we only model timing of the log path.)
	tlb  map[uint32]uint16
	desc []Descriptor

	// OnFull lets the kernel provide more log space; return false to
	// drop further records for that log.
	OnFull func(l *Logger, logIndex uint16) bool

	// DMAHook, when non-nil, observes each record just before it is
	// written to memory at dst; it may mutate the record or return
	// drop=true to lose it. Fault-injection insertion point, mirroring
	// hwlogger.Logger.DMAHook.
	DMAHook func(rec *logrec.Record, dst phys.Addr) (drop bool)
	// hookRec is the scratch record handed to DMAHook (keeps the drain
	// path allocation-free; see hwlogger.Logger.hookRec).
	hookRec logrec.Record

	// WriteBuffer is the stall threshold (entries buffered on chip).
	WriteBuffer int

	// fifo is a ring: Snoop drains back down to WriteBuffer entries, so
	// occupancy never exceeds WriteBuffer+1 and steady-state pushes do
	// not allocate.
	fifo     []machine.LoggedWrite
	fifoHead int
	fifoLen  int
	freeAt   uint64

	// Stats.
	RecordsWritten uint64
	RecordsLost    uint64
	StallEvents    uint64

	// ms/tr: metrics shard and (possibly nil) tracer; see
	// hwlogger.Logger.SetMetrics for the wiring convention.
	ms *metrics.Shard
	tr *metrics.Tracer
}

// New creates an on-chip logger for the given bus and memory.
func New(b *bus.Bus, mem *phys.Memory) *Logger {
	return &Logger{
		bus:         b,
		mem:         mem,
		tlb:         make(map[uint32]uint16),
		desc:        make([]Descriptor, 64),
		fifo:        make([]machine.LoggedWrite, DefaultWriteBuffer+1),
		WriteBuffer: DefaultWriteBuffer,
		ms:          new(metrics.Shard),
	}
}

// SetMetrics points the on-chip unit's counters at sh and its trace
// emissions at tr (may be nil).
func (l *Logger) SetMetrics(sh *metrics.Shard, tr *metrics.Tracer) {
	if sh != nil {
		l.ms = sh
	}
	l.tr = tr
}

// MapPage associates a virtual page (by its 20-bit VPN) with a log
// descriptor, as the extended TLB entry of Figure 13 does.
func (l *Logger) MapPage(vpn uint32, logIndex uint16) { l.tlb[vpn] = logIndex }

// UnmapPage removes a virtual page's log association.
func (l *Logger) UnmapPage(vpn uint32) { delete(l.tlb, vpn) }

// SetDescriptor provides log space [addr, limit) for a log.
func (l *Logger) SetDescriptor(logIndex uint16, addr, limit phys.Addr) {
	l.desc[logIndex] = Descriptor{Valid: true, Addr: addr, Limit: limit}
}

// Descriptor returns a log's descriptor.
func (l *Logger) Descriptor(logIndex uint16) Descriptor { return l.desc[logIndex] }

// Invalidate disables a log; subsequent records for it are dropped
// (after OnFull declines).
func (l *Logger) Invalidate(logIndex uint16) { l.desc[logIndex] = Descriptor{} }

func (l *Logger) pending() int { return l.fifoLen }

func (l *Logger) push(w machine.LoggedWrite) {
	if l.fifoLen == 0 {
		// Empty ring: rewind to keep the drained steady state in the
		// same host cache lines.
		l.fifoHead = 0
	} else if l.fifoLen == len(l.fifo) {
		// WriteBuffer was raised after New: grow the ring once.
		n := 2 * len(l.fifo)
		if n < l.WriteBuffer+1 {
			n = l.WriteBuffer + 1
		}
		if n == 0 {
			n = 1
		}
		grown := make([]machine.LoggedWrite, n)
		for i := 0; i < l.fifoLen; i++ {
			grown[i] = l.fifo[(l.fifoHead+i)%len(l.fifo)]
		}
		l.fifo = grown
		l.fifoHead = 0
	}
	idx := l.fifoHead + l.fifoLen
	if idx >= len(l.fifo) {
		idx -= len(l.fifo)
	}
	l.fifo[idx] = w
	l.fifoLen++
}

// Snoop accepts a logged write. If the on-chip write buffer is full the
// CPU stalls until the oldest buffered record drains.
func (l *Logger) Snoop(w machine.LoggedWrite) (stallUntil uint64) {
	l.push(w)
	stall := w.Time
	for l.pending() > l.WriteBuffer {
		l.serviceOne()
		l.StallEvents++
		l.ms.Inc(metrics.ChipStallEvents)
		if l.freeAt > stall {
			stall = l.freeAt
		}
	}
	if stall > w.Time {
		l.ms.Add(metrics.ChipStallCycles, stall-w.Time)
		l.tr.Emit(w.Time, metrics.EvChipStall, int(w.CPU), stall-w.Time, 0)
	}
	return stall
}

// PumpUntil drains buffered records whose bus request precedes cycle t
// (first-come-first-served arbitration with the CPUs).
func (l *Logger) PumpUntil(t uint64) {
	lead := uint64(cycles.BlockWriteTotal - cycles.BlockWriteBus)
	for l.pending() > 0 {
		start := l.freeAt
		if e := l.fifo[l.fifoHead]; e.Time > start {
			start = e.Time
		}
		if start+lead >= t {
			return
		}
		l.serviceOne()
	}
}

// DrainAll drains everything and returns the idle cycle.
func (l *Logger) DrainAll() uint64 {
	for l.pending() > 0 {
		l.serviceOne()
	}
	return l.freeAt
}

func (l *Logger) serviceOne() {
	e := l.fifo[l.fifoHead]
	l.fifoHead++
	if l.fifoHead == len(l.fifo) {
		l.fifoHead = 0
	}
	l.fifoLen--
	start := l.freeAt
	if e.Time > start {
		start = e.Time
	}

	idx, ok := l.tlb[e.VAddr>>phys.PageShift]
	if !ok {
		l.ms.Inc(metrics.ChipDescMisses)
		l.recordLost()
		l.freeAt = start
		return
	}
	d := &l.desc[idx]
	if !d.Valid || d.Addr+logrec.Size > d.Limit {
		l.ms.Inc(metrics.ChipDescMisses)
		if l.OnFull == nil || !l.OnFull(l, idx) {
			l.recordLost()
			l.freeAt = start
			return
		}
		d = &l.desc[idx]
		if !d.Valid || d.Addr+logrec.Size > d.Limit {
			l.recordLost()
			l.freeAt = start
			return
		}
	} else {
		l.ms.Inc(metrics.ChipDescHits)
	}

	// One 16-byte block write over the bus; no lookup latency (on-chip
	// tables).
	grant := l.bus.Acquire(start+uint64(cycles.BlockWriteTotal-cycles.BlockWriteBus), cycles.BlockWriteBus)
	complete := grant + cycles.BlockWriteBus

	rec := logrec.Record{
		Addr:      e.VAddr, // virtual address, Section 4.6
		Value:     e.Value,
		WriteSize: e.Size,
		CPU:       e.CPU,
		Timestamp: cycles.ToTimestamp(e.Time),
	}
	if l.DMAHook != nil {
		l.hookRec = rec
		if l.DMAHook(&l.hookRec, d.Addr) {
			l.recordLost()
			l.freeAt = complete
			return
		}
		rec = l.hookRec
	}
	var buf [logrec.Size]byte
	rec.Encode(buf[:])
	l.mem.WriteBlock16(d.Addr, &buf)
	d.Addr += logrec.Size
	l.RecordsWritten++
	l.ms.Inc(metrics.ChipRecordsDMAed)
	l.freeAt = complete
}

// recordLost tallies a dropped record in both the legacy stats field and
// the metrics shard.
func (l *Logger) recordLost() {
	l.RecordsLost++
	l.ms.Inc(metrics.ChipRecordsLost)
}
