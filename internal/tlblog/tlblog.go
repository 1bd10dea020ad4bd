// Package tlblog models the next-generation, on-chip logging hardware of
// Section 4.6 of the paper: "A processor designed to support logging could
// tag cache blocks to be logged either in the cache tags or in the TLB
// entries... TLB entries are extended to contain a log table index and the
// log table is stored inside the CPU."
//
// Its write buffer, record DMA and loss ledger are logcore.Core, shared with
// the prototype bus logger (package hwlogger); what differs is what
// Section 4.6 changes:
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
	"math"

	"lvm/internal/bus"
	"lvm/internal/cycles"
	"lvm/internal/logcore"
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

// Logger is the on-chip logging unit. It satisfies machine.LogDevice. Its
// write buffer, record DMA and loss ledger are the shared logcore.Core;
// what is its own is the TLB tag, the descriptor table and the stall.
type Logger struct {
	logcore.Core

	// tlb maps virtual page number -> log descriptor index. (A real TLB
	// is a cache over page tables; the map stands in for the whole
	// table walk since we only model timing of the log path.)
	tlb  map[uint32]uint16
	desc []Descriptor

	// OnFull lets the kernel provide more log space; return false to
	// drop further records for that log.
	OnFull func(l *Logger, logIndex uint16) bool

	// WriteBuffer is the stall threshold (entries buffered on chip).
	WriteBuffer int

	// StallEvents counts write-buffer-full processor stalls (records
	// written and lost are on the Core's ledger).
	StallEvents uint64
}

// model is the on-chip unit's side of the shared core: records carry the
// virtual address, and with the tables on chip a record costs just its
// 16-byte block write (9 cycles, 8 of them on the bus).
var model = logcore.Model{
	Virtual: true,
	Lead:    cycles.BlockWriteTotal - cycles.BlockWriteBus,
	Bus:     cycles.BlockWriteBus,
	Ring:    DefaultWriteBuffer + 1,
	DMAed:   metrics.ChipRecordsDMAed,
	Lost:    metrics.ChipRecordsLost,
}

// New creates an on-chip logger for the given bus and memory.
func New(b *bus.Bus, mem *phys.Memory) *Logger {
	return &Logger{
		Core:        logcore.New(b, mem, model),
		tlb:         make(map[uint32]uint16),
		desc:        make([]Descriptor, 64),
		WriteBuffer: DefaultWriteBuffer,
	}
}

// MapPage associates a virtual page (by its 20-bit VPN) with a log
// descriptor, as the extended TLB entry of Figure 13 does.
func (l *Logger) MapPage(vpn uint32, logIndex uint16) { l.tlb[vpn] = logIndex }

// SetDescriptor provides log space [addr, limit) for a log.
func (l *Logger) SetDescriptor(logIndex uint16, addr, limit phys.Addr) {
	l.desc[logIndex] = Descriptor{Valid: true, Addr: addr, Limit: limit}
}

// Descriptor returns a log's descriptor.
func (l *Logger) Descriptor(logIndex uint16) Descriptor { return l.desc[logIndex] }

// Snoop accepts a logged write. If the on-chip write buffer is full the
// CPU stalls until the oldest buffered record drains. The write can make
// work due sooner only by becoming the head of an empty buffer; otherwise
// the wake is math.MaxUint64 (see machine.LogDevice).
func (l *Logger) Snoop(w machine.LoggedWrite) (stallUntil, wake uint64) {
	// The buffer stalls instead of overflowing, so the push never refuses.
	l.Push(&w, math.MaxInt)
	stall := w.Time
	for l.Pending() > l.WriteBuffer {
		l.serviceOne()
		l.StallEvents++
		l.Shard().Inc(metrics.ChipStallEvents)
		stall = max(stall, l.FreeAt())
	}
	if stall > w.Time {
		l.Shard().Add(metrics.ChipStallCycles, stall-w.Time)
		l.Tracer().Emit(w.Time, metrics.EvChipStall, int(w.CPU), stall-w.Time, 0)
	}
	if l.Pending() == 1 {
		return stall, l.Wake()
	}
	return stall, math.MaxUint64
}

// PumpUntil drains buffered records whose bus request precedes cycle t
// (see logcore.Core.Due) and returns the next one's.
func (l *Logger) PumpUntil(t uint64) (wake uint64) {
	for l.Due(t) {
		l.serviceOne()
	}
	return l.Wake()
}

// DrainAll drains everything and returns the idle cycle.
func (l *Logger) DrainAll() uint64 {
	for l.Pending() > 0 {
		l.serviceOne()
	}
	return l.FreeAt()
}

// room reports whether d can take one more record.
func (d *Descriptor) room() bool { return d.Valid && d.Addr+logrec.Size <= d.Limit }

// serviceOne writes the oldest buffered record: TLB tag, then descriptor,
// then one block write — no lookup latency, the tables are on chip.
func (l *Logger) serviceOne() {
	e := l.Pop()
	start := l.Start(&e)
	idx, ok := l.tlb[e.VAddr>>phys.PageShift]
	d := &l.desc[idx]
	switch {
	case !ok:
		l.Shard().Inc(metrics.ChipDescMisses)
		d = nil
	case d.room():
		l.Shard().Inc(metrics.ChipDescHits)
	default:
		l.Shard().Inc(metrics.ChipDescMisses)
		if l.OnFull == nil || !l.OnFull(l, idx) || !l.desc[idx].room() {
			d = nil
		}
	}
	if d == nil {
		l.Lose()
		l.Finish(start)
		return
	}
	_, complete := l.Transfer(start, 1)
	if l.Put(&e, d.Addr) {
		d.Addr += logrec.Size
	}
	l.Finish(complete)
}
