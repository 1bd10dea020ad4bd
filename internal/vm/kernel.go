// Package vm implements the virtual-memory system software of the LVM
// prototype: the V++ Cache Kernel extensions of Sections 2 and 3.2–3.3 of
// the paper.
//
// It provides memory segments, regions (mappings of segments into address
// spaces), log segments, per-region logging, deferred copy, and the two
// kernel fault paths the paper describes:
//
//   - the page-fault handler, which allocates a frame, initializes the
//     page (zero-fill, a user-level segment manager, or the deferred-copy
//     source), puts logged pages into write-through mode, and loads the
//     hardware logger's page-mapping-table and log-table entries; and
//   - the logging-fault handler, which reloads displaced page-mapping
//     entries and advances a log to its next page frame when the hardware
//     invalidates the log-table entry at a page crossing, falling back to
//     a default "absorb" page (discarding records) when the user has not
//     extended the log segment.
//
// All kernel work is charged in cycles to the faulting CPU, calibrated per
// package cycles.
package vm

import (
	"fmt"

	"lvm/internal/cycles"
	"lvm/internal/hwlogger"
	"lvm/internal/logcore"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"
	"lvm/internal/tlblog"
)

// Addr is a 32-bit virtual address.
type Addr = uint32

// Page constants re-exported for convenience.
const (
	PageSize  = phys.PageSize
	PageShift = phys.PageShift
	PageMask  = phys.PageMask
	LineSize  = cycles.LineSize
	// LinesPerPage is the number of 16-byte cache lines in a page.
	LinesPerPage = PageSize / LineSize
)

// frameOwner records which segment page occupies a physical frame, for the
// logger's reverse translation and for logging-fault recovery.
type frameOwner struct {
	seg  *Segment
	page uint32
}

// Kernel is the virtual-memory system: it owns the machine, the hardware
// logger, the frame-ownership (reverse) map, and the log-index allocator.
type Kernel struct {
	M   *machine.Machine
	Log *hwlogger.Logger
	// Chip is the Section 4.6 on-chip logger; exactly one of Log and
	// Chip is non-nil on a logging-capable kernel (see NewKernelOnChip).
	Chip *tlblog.Logger

	owners map[uint32]frameOwner // ppn -> owner

	// logIdxs is the device's log-table size. Indices go out in order
	// and are never freed: nextLogIdx is the next one.
	logIdxs, nextLogIdx int

	segments      []*Segment
	addressSpaces int
	asList        []*AddressSpace

	// absorbFrame is the default log page used to absorb records when a
	// log segment runs out of space (Section 3.2).
	absorbFrame uint32

	// Stats.
	PageFaults    uint64
	LoggingFaults uint64
	Overloads     uint64
	AbsorbedPages uint64
}

// NewKernel builds a machine per cfg, attaches a hardware logger to its
// bus, and wires the kernel's fault handlers into it.
func NewKernel(cfg machine.Config) *Kernel {
	k := NewKernelNoLogger(cfg)
	k.Log = hwlogger.New(k.M.Bus, k.M.Phys)
	k.attachLogger(k.Log, k.Log.NumLogs())
	k.Log.OnFault = k.handleLoggingFault
	k.Log.OnOverload = func(drained uint64) uint64 {
		k.Overloads++
		resume := drained + cycles.OverloadKernelCycles
		k.M.StallAll(resume)
		return resume
	}
	return k
}

// NewKernelNoLogger builds a kernel without a logging device, for
// baselines that must not pay even the possibility of snooping.
func NewKernelNoLogger(cfg machine.Config) *Kernel {
	m := machine.New(cfg)
	k := &Kernel{M: m, owners: make(map[uint32]frameOwner)}
	m.Metrics.AddCollector(k.collectStats)
	return k
}

// attachLogger makes dev (k.Log or k.Chip) the machine's logging device,
// with logs hardware log indices and the absorb frame.
func (k *Kernel) attachLogger(dev machine.LogDevice, logs int) {
	k.M.AttachLog(dev)
	k.LogCore().SetMetrics(k.M.DeviceShard(), k.M.Metrics.Tracer())
	k.logIdxs = logs
	f, err := k.M.Phys.Alloc()
	if err != nil {
		panic("vm: cannot allocate absorb frame")
	}
	k.absorbFrame = f
}

// collectStats publishes the kernel-level aggregates that live in kernel
// and segment structs (snapshot-time collection; no hot-path cost).
func (k *Kernel) collectStats(emit func(name string, v uint64)) {
	var lost uint64
	for _, s := range k.segments {
		if s.isLog {
			// LostRecords, not the raw field: an actively absorbing log's
			// in-flight loss lives in the hardware head until accounted.
			lost += s.LostRecords()
		}
	}
	emit("vm.log_records_lost_absorbed", lost)
	emit("vm.segments", uint64(len(k.segments)))
	emit("vm.address_spaces", uint64(k.addressSpaces))
	emit("vm.kernel_overloads", k.Overloads)
	if k.Log != nil {
		// Device-side loss and overload-resume accounting, counted in the
		// logger's own stats fields but previously absent from snapshots.
		emit("hwlogger.records_lost_total", k.Log.RecordsLost)
		emit("hwlogger.overload_resume_cycles", k.Log.StallCycles)
	}
}

// allocLogIndex reserves a hardware log-table slot.
func (k *Kernel) allocLogIndex() (uint16, error) {
	if k.nextLogIdx == k.logIdxs {
		return 0, fmt.Errorf("vm: out of hardware log-table entries")
	}
	k.nextLogIdx++
	return uint16(k.nextLogIdx - 1), nil
}

// kshard picks the metrics shard kernel work is charged to: the faulting
// CPU's shard when the kernel runs in a CPU's context, shard 0 otherwise.
func (k *Kernel) kshard(cpu *machineCPU) *metrics.Shard {
	if cpu != nil {
		return cpu.MS
	}
	return k.M.Metrics.Shard(0)
}

// tracer is the machine's event tracer (never nil; disabled by default).
func (k *Kernel) tracer() *metrics.Tracer { return k.M.Metrics.Tracer() }

// ReverseTranslate maps a physical address (as found in a prototype log
// record) back to the owning segment and byte offset within it. This is
// the software reverse translation discussed in Section 3.1.2: the
// FPGA logger stores physical addresses, so log consumers translate.
func (k *Kernel) ReverseTranslate(paddr phys.Addr) (seg *Segment, off uint32, ok bool) {
	o, found := k.owners[phys.PPN(paddr)]
	if !found {
		return nil, 0, false
	}
	return o.seg, o.page*PageSize + paddr&PageMask, true
}

// loadPMT installs the logger's page-mapping entry for data page `page`
// of segment s (resident in `frame`), clearing the absorb-enable bit when
// the page overlaps the segment's no-absorb prefix so marker-word writes
// are never coalesced.
func (k *Kernel) loadPMT(s *Segment, page, frame uint32, logIndex uint16) (displaced hwlogger.PMTEntry) {
	displaced = k.Log.LoadPMT(frame, logIndex)
	if s.noAbsorbLimit > 0 && page*PageSize < s.noAbsorbLimit {
		k.Log.SetPMTAbsorb(frame, false)
	}
	return displaced
}

// handleLoggingFault is the kernel's logging-fault handler (Section 3.2).
func (k *Kernel) handleLoggingFault(l *hwlogger.Logger, f hwlogger.Fault) bool {
	k.LoggingFaults++
	k.M.DeviceShard().Inc(metrics.VMLoggingFaults)
	switch f.Kind {
	case hwlogger.FaultMissingPMT:
		// A displaced page-mapping entry: reload it from the frame
		// ownership map if the owning segment is logged.
		o, found := k.owners[f.PPN]
		if !found || !o.seg.logged {
			return false
		}
		k.loadPMT(o.seg, o.page, f.PPN, o.seg.logIndex)
		if !l.LogHead(o.seg.logIndex).Valid {
			return k.advanceLogHead(o.seg.logTo)
		}
		return true
	case hwlogger.FaultInvalidLogAddr:
		// The log address crossed a page boundary: move the head to the
		// log segment's next page, or to the absorb page.
		return k.advanceLogIndex(f.LogIndex)
	}
	return false
}

// LogCore is the logging device's shared FIFO, record DMA and loss
// ledger, whichever logger the machine has; nil without one.
func (k *Kernel) LogCore() *logcore.Core {
	switch {
	case k.Log != nil:
		return &k.Log.Core
	case k.Chip != nil:
		return &k.Chip.Core
	}
	return nil
}

// logHead reads a log's device head: the physical address of its next
// record and whether the head has room for it. The bus logger's head
// invalidates itself at a page crossing; the on-chip descriptor stops at
// its limit, which the kernel always sets at the end of a page.
func (k *Kernel) logHead(ls *Segment) (addr phys.Addr, room bool) {
	if k.Chip != nil {
		d := k.Chip.Descriptor(ls.logIndex)
		return d.Addr, d.Valid && d.Addr+logrec.Size <= d.Limit
	}
	h := k.Log.LogHead(ls.logIndex)
	return h.Addr, h.Valid
}

// pointLogHead points a log's device head at addr, with room to the end
// of addr's page.
func (k *Kernel) pointLogHead(ls *Segment, addr phys.Addr) {
	if k.Chip != nil {
		k.Chip.SetDescriptor(ls.logIndex, addr, phys.PageBase(addr)+PageSize)
	} else {
		k.Log.SetLogHead(ls.logIndex, addr, ls.logMode)
	}
}

// headPageOff is how many bytes of its current page a log's head has
// filled: PageSize once the page is full.
func (k *Kernel) headPageOff(ls *Segment) uint32 {
	if addr, room := k.logHead(ls); room {
		return addr & PageMask
	}
	return PageSize
}

// advanceLogHead points the log's device head at the next page of the log
// segment, or at the kernel's absorb page when the user has not provided
// one ("If the user has not provided a page, the kernel uses a default log
// page to absorb the log records... Log records may be lost in this
// case.", Section 3.2).
func (k *Kernel) advanceLogHead(ls *Segment) bool {
	if ls == nil || !ls.logIdxValid {
		return false
	}
	k.settleAbsorbLoss(ls)
	if ls.nextPage < ls.NumPages() {
		frame, err := ls.ensureFrame(ls.nextPage)
		if err != nil {
			return false
		}
		ls.hwPage = ls.nextPage
		ls.nextPage++
		k.pointLogHead(ls, phys.FrameBase(frame))
		k.M.DeviceShard().Inc(metrics.VMLogHeadAdvances)
		k.tracer().Emit(k.M.MaxNow(), metrics.EvLogAdvance, -1, uint64(ls.id), uint64(ls.hwPage))
		return true
	}
	// Absorb: records land in the absorb frame and are lost.
	k.AbsorbedPages++
	ls.absorbing = true
	k.pointLogHead(ls, phys.FrameBase(k.absorbFrame))
	k.M.DeviceShard().Inc(metrics.VMAbsorbedPages)
	k.tracer().Emit(k.M.MaxNow(), metrics.EvLogAbsorb, -1, uint64(ls.id), 0)
	return true
}

// advanceLogIndex is the kernel's answer to a log head with no room
// (the bus logger's invalid-log-address fault, the on-chip logger's
// OnFull): it advances the log that owns the hardware index.
func (k *Kernel) advanceLogIndex(logIndex uint16) bool {
	for _, s := range k.segments {
		if s.isLog && s.logIdxValid && s.logIndex == logIndex {
			return k.advanceLogHead(s)
		}
	}
	return false
}

// settleAbsorbLoss ends an absorb episode: the records the head wrote into
// the absorb frame go on the log's loss ledger. Every path that moves the
// head settles first, so each absorbed record counts once.
func (k *Kernel) settleAbsorbLoss(ls *Segment) {
	if ls.absorbing {
		ls.lostRecords += uint64(k.headPageOff(ls) / ls.recordSize())
		ls.absorbing = false
	}
}

// setLogHeadAt points the device head at byte offset off of the log
// segment (used when logging starts and when the log is rewound). An
// offset past the segment's end starts the head on the absorb page.
func (k *Kernel) setLogHeadAt(ls *Segment, off uint32) error {
	k.settleAbsorbLoss(ls)
	if page := off >> PageShift; page >= ls.NumPages() {
		ls.nextPage = ls.NumPages()
		if !k.advanceLogHead(ls) {
			return fmt.Errorf("vm: cannot start log head")
		}
	} else {
		frame, err := ls.ensureFrame(page)
		if err != nil {
			return err
		}
		ls.hwPage = page
		ls.nextPage = page + 1
		k.pointLogHead(ls, phys.FrameBase(frame)+(off&PageMask))
	}
	ls.started = true
	return nil
}

// LogAppendOffset reports the byte offset within the log segment at which
// the next record will be written (i.e. the current end of the log data).
// Call Sync first to account for in-flight records.
func (k *Kernel) LogAppendOffset(ls *Segment) uint32 {
	switch {
	case !ls.logIdxValid || !ls.started:
		return 0
	case ls.absorbing:
		return ls.NumPages() * PageSize
	}
	return ls.hwPage*PageSize + k.headPageOff(ls)
}

// TruncateLog discards the contents of a log segment and moves the append
// position back to its start (log truncation, Sections 2.4 and 4.2).
func (k *Kernel) TruncateLog(ls *Segment) error {
	return k.RewindLog(ls, 0)
}

// RewindLog moves a log segment's append position back to byte offset off,
// discarding the records at and beyond it. RLVM uses this to drop the
// records of an aborted transaction. In-flight records are drained first.
func (k *Kernel) RewindLog(ls *Segment, off uint32) error {
	if !ls.isLog {
		return fmt.Errorf("vm: RewindLog on non-log segment %q", ls.name)
	}
	k.Sync()
	k.kshard(nil).Inc(metrics.VMLogRewinds)
	k.tracer().Emit(k.M.MaxNow(), metrics.EvLogRewind, -1, uint64(ls.id), uint64(off))
	if !ls.logIdxValid {
		return nil // no region logs here yet: the head will start at 0
	}
	return k.setLogHeadAt(ls, off)
}

// Sync completes all in-flight logger work (the "synchronize on the end of
// the log" of Section 2.6) and returns the cycle at which the machine went
// idle.
func (k *Kernel) Sync() uint64 { return k.M.Drain() }
