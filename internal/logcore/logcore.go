// Package logcore is the part of a logging device that the prototype's bus
// logger (package hwlogger, Section 3.1) and the next-generation on-chip
// logger (package tlblog, Section 4.6) share: the FIFO of snooped writes,
// the record DMA that turns each into a 16-byte record in a log segment,
// and the ledger of records written and lost. Each device embeds a Core
// and keeps only what Section 4.6 changes:
//
//   - the address a record carries: physical on the bus, virtual on chip
//     (Model.Virtual);
//   - how a write finds its log and what that lookup costs: the page
//     mapping and log tables behind Model.Lead's 15 cycles, or the TLB
//     tag and on-chip descriptor, which cost nothing;
//   - what a filling FIFO does: interrupt the kernel and drain it all
//     (overload), or stall the CPU until one record drains.
package logcore

import (
	"math"

	"lvm/internal/bus"
	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"
)

// Model is what a device tells the core about itself.
type Model struct {
	// Virtual makes records carry LoggedWrite.VAddr, not Addr.
	Virtual bool
	// A record's service begins Lead cycles before its bus request, holds
	// the bus Bus cycles, and completes Tail cycles after the tenure.
	Lead uint64
	Bus  uint32
	Tail uint64
	// Ring is the host ring's starting size; it doubles as needed.
	Ring int
	// DMAed and Lost are the counters the ledger charges.
	DMAed, Lost metrics.ID
}

// Core is a device's FIFO, record DMA and loss ledger.
type Core struct {
	bus   *bus.Bus
	mem   *phys.Memory
	model Model

	// ring holds the writes snooped but not yet serviced, oldest at head.
	// It grows (doubling) only to the run's high-water mark, so the
	// steady state never allocates; the modelled capacity is the device's
	// business. seq is the absolute sequence number of the head entry.
	ring    []machine.LoggedWrite
	head, n int
	seq     uint64

	// freeAt is when the device finishes its current service.
	freeAt uint64

	// DMAHook, when non-nil, observes each record just before it reaches
	// memory at dst. It may mutate the record (bit corruption) or return
	// drop=true to lose it: the loss goes on the ledger and the log head
	// does not advance, so later records close the gap. It is the fault
	// injector's insertion point; nil costs the DMA one branch.
	DMAHook func(rec *logrec.Record, dst phys.Addr) (drop bool)
	// hookRec is the record handed to DMAHook; keeping it here rather than
	// taking a local's address keeps the DMA allocation-free.
	hookRec logrec.Record

	// The ledger: every snooped write ends as exactly one of these (or is
	// absorbed or discarded, which the device and its caller count).
	RecordsWritten uint64
	RecordsLost    uint64

	// ms is the metrics shard the device charges; tr the (possibly nil)
	// tracer. New installs a private shard so charging never needs a nil
	// check; SetMetrics rebinds both to the owning machine.
	ms *metrics.Shard
	tr *metrics.Tracer
}

// New returns a core for a device over b and mem.
func New(b *bus.Bus, mem *phys.Memory, m Model) Core {
	return Core{bus: b, mem: mem, model: m, ring: make([]machine.LoggedWrite, m.Ring), ms: new(metrics.Shard)}
}

// SetMetrics points the device's counters at sh (typically the machine's
// device shard) and its trace emissions at tr (may be nil).
func (c *Core) SetMetrics(sh *metrics.Shard, tr *metrics.Tracer) {
	if sh != nil {
		c.ms = sh
	}
	c.tr = tr
}

// Memory is the physical memory the device writes its log into.
func (c *Core) Memory() *phys.Memory { return c.mem }

// Shard is the metrics shard the device charges.
func (c *Core) Shard() *metrics.Shard { return c.ms }

// Tracer is the device's event tracer (possibly nil; Emit allows that).
func (c *Core) Tracer() *metrics.Tracer { return c.tr }

// Pending reports how many snooped writes await service.
func (c *Core) Pending() int { return c.n }

// FreeAt reports when the device is next idle.
func (c *Core) FreeAt() uint64 { return c.freeAt }

// Finish records that the current service ends at cycle t.
func (c *Core) Finish(t uint64) { c.freeAt = t }

// Seq is the absolute sequence number of the oldest pending write: it
// counts every write ever serviced or discarded.
func (c *Core) Seq() uint64 { return c.seq }

// Push queues w. A FIFO already holding limit entries refuses it, and the
// write goes on the ledger as lost.
func (c *Core) Push(w *machine.LoggedWrite, limit int) {
	if c.n >= limit {
		c.Lose()
		return
	}
	if c.n == 0 {
		// Empty ring: rewind, so the common drained-between-stores case
		// keeps reusing the same few host cache lines.
		c.head = 0
	} else if c.n == len(c.ring) {
		grown := make([]machine.LoggedWrite, min(2*len(c.ring), limit))
		k := copy(grown, c.ring[c.head:])
		copy(grown[k:], c.ring[:c.head])
		c.ring, c.head = grown, 0
	}
	// The rule on the store path: a struct written field by field is
	// never read back whole. Snoop has just spilled w one field at a
	// time; a whole-struct copy reads those fields back with wider loads
	// than the stores that wrote them, which the host cannot forward from
	// its store buffer and stalls on. The compiler fuses copies of
	// neighbouring fields of one width into one wider load, so the fields
	// go in an order that never puts two of one width side by side.
	s := &c.ring[c.slot(c.n)]
	s.Addr, s.Size, s.VAddr, s.CPU, s.Value, s.Time = w.Addr, w.Size, w.VAddr, w.CPU, w.Value, w.Time
	c.n++
}

// slot is the ring index of the i-th pending write (0 = oldest).
func (c *Core) slot(i int) int {
	j := c.head + i
	if j >= len(c.ring) {
		j -= len(c.ring)
	}
	return j
}

// At returns the i-th pending write (0 = oldest) in place: a device may
// rewrite its datum (write absorption).
func (c *Core) At(i int) *machine.LoggedWrite { return &c.ring[c.slot(i)] }

// drop retires the n oldest pending writes.
func (c *Core) drop(n int) {
	c.head = c.slot(n)
	c.n -= n
	c.seq += uint64(n)
}

// Pop retires and returns the oldest pending write.
func (c *Core) Pop() machine.LoggedWrite {
	w := c.ring[c.head]
	c.drop(1)
	return w
}

// Start is the cycle at which servicing w can begin: once the device is
// free and w has arrived.
func (c *Core) Start(w *machine.LoggedWrite) uint64 { return max(c.freeAt, w.Time) }

// Due reports whether the oldest pending write's bus request would come
// before cycle t, the arrival of the next competing request: arbitration
// is first-come-first-served, so the device never reserves the bus ahead
// of an earlier CPU request.
func (c *Core) Due(t uint64) bool { return c.Wake() < t }

// Wake is the cycle of the oldest pending write's bus request, past which
// Due holds (math.MaxUint64 with nothing pending): the wake a device with
// per-record service reports to the machine (see machine.LogDevice).
func (c *Core) Wake() uint64 {
	if c.n == 0 {
		return math.MaxUint64
	}
	return c.Start(&c.ring[c.head]) + c.model.Lead
}

// Transfer charges the bus for n records whose service begins at start,
// in one tenure of n×Bus cycles, and returns how long the request waited
// for the bus and when the transfer completes. For n == 1 it is one
// record's cost.
func (c *Core) Transfer(start uint64, n int) (wait, complete uint64) {
	ready := start + c.model.Lead
	hold := uint32(n) * c.model.Bus
	grant := c.bus.Acquire(ready, hold)
	return grant - ready, grant + uint64(hold) + c.model.Tail
}

// record assembles w's 16-byte log record.
func (c *Core) record(w *machine.LoggedWrite) logrec.Record {
	addr := w.Addr
	if c.model.Virtual {
		addr = w.VAddr
	}
	return logrec.Record{Addr: addr, Value: w.Value, WriteSize: w.Size, CPU: w.CPU, Timestamp: cycles.ToTimestamp(w.Time)}
}

// put encodes w's record into dst straight from w's fields: no Record
// temp is built and copied whole (see Push).
func (c *Core) put(dst *[logrec.Size]byte, w *machine.LoggedWrite) {
	addr := w.Addr
	if c.model.Virtual {
		addr = w.VAddr
	}
	logrec.Put(dst, addr, w.Value, w.Size, w.CPU, cycles.ToTimestamp(w.Time))
}

// Put DMAs w's record to dst through DMAHook and reports whether it
// reached memory; a dropped record is already on the ledger.
func (c *Core) Put(w *machine.LoggedWrite, dst phys.Addr) bool {
	if off := dst & phys.PageMask; c.DMAHook == nil && off <= phys.PageSize-logrec.Size {
		// Encode straight from the write into the frame.
		c.put((*[logrec.Size]byte)(c.mem.Frame(phys.PPN(dst))[off:]), w)
		c.Written(1)
		return true
	}
	rec := c.record(w)
	if c.DMAHook != nil {
		c.hookRec = rec
		if c.DMAHook(&c.hookRec, dst) {
			c.Lose()
			return false
		}
		rec = c.hookRec
	}
	var buf [logrec.Size]byte
	rec.Encode(buf[:])
	c.mem.WriteBlock16(dst, &buf)
	c.Written(1)
	return true
}

// PutRun DMAs the n oldest pending writes to consecutive records from
// dst, which must have room for all n before the end of its page, retires
// them, and returns how many bytes reached memory: records DMAHook drops
// leave no hole, later ones close it.
func (c *Core) PutRun(n int, dst phys.Addr) (written phys.Addr) {
	if c.DMAHook != nil {
		for i := 0; i < n; i++ {
			if c.Put(c.At(i), dst+written) {
				written += logrec.Size
			}
		}
	} else {
		// Encode straight out of the ring into the frame.
		frame := c.mem.Frame(phys.PPN(dst))
		off := dst & phys.PageMask
		for i, j := 0, c.head; i < n; i++ {
			c.put((*[logrec.Size]byte)(frame[off+written:]), &c.ring[j])
			written += logrec.Size
			if j++; j == len(c.ring) {
				j = 0
			}
		}
		c.Written(n)
	}
	c.drop(n)
	return written
}

// Written puts n records that reached memory on the ledger.
func (c *Core) Written(n int) {
	c.RecordsWritten += uint64(n)
	c.ms.Add(c.model.DMAed, uint64(n))
}

// Lose puts one lost record on the ledger.
func (c *Core) Lose() {
	c.RecordsLost++
	c.ms.Inc(c.model.Lost)
}

// PendingWrites visits every pending write, oldest first, without
// consuming it (crash forensics: the fault injector captures the
// in-flight writes a power loss would destroy).
func (c *Core) PendingWrites(fn func(w machine.LoggedWrite)) {
	for i := 0; i < c.n; i++ {
		fn(*c.At(i))
	}
}

// DiscardPending empties the FIFO without servicing it, modelling the
// loss of the volatile FIFO at a crash, and returns how many writes it
// held. The caller owns the accounting of what was lost.
func (c *Core) DiscardPending() int {
	n := c.n
	c.drop(n)
	return n
}
