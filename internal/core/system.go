// Package core is the public API of the LVM reproduction: the C++
// virtual-memory interface of Table 1 of the paper, expressed in Go, plus
// the log-consumption machinery (readers, reverse translation, roll
// forward) that LVM applications need.
//
// The shape follows the paper's example (Section 2.2):
//
//	sys := core.NewSystem(core.DefaultConfig())
//	segA := core.NewStdSegment(sys, size, nil)      // new StdSegment(size)
//	regR := core.NewStdRegion(sys, segA)            // new StdRegion(seg_a)
//	ls := core.NewLogSegment(sys, 16)               // new LogSegment()
//	regR.Log(ls)                                    // reg_r->log(ls)
//	as := sys.NewAddressSpace()                     // thisProcess()->addressSpace()
//	base, _ := regR.Bind(as, 0)                     // reg_r->bind(as)
//
// after which every store through a Process into [base, base+size) is
// logged by the (simulated) hardware into ls, and can be read back with a
// LogReader.
package core

import (
	"lvm/internal/hwlogger"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/vm"
)

// Re-exported fundamental types, so applications only import core.
type (
	// Segment is a memory segment (StdSegment / LogSegment of Table 1).
	Segment = vm.Segment
	// Region is a mapping of a segment into an address space.
	Region = vm.Region
	// AddressSpace is a 4 KiB-paged 32-bit virtual address space.
	AddressSpace = vm.AddressSpace
	// Process issues loads and stores on a simulated CPU.
	Process = vm.Process
	// SegmentManager implements user-level page-fault handling.
	SegmentManager = vm.SegmentManager
	// Addr is a 32-bit virtual address.
	Addr = vm.Addr
	// Config describes the simulated machine.
	Config = machine.Config
)

// Page geometry re-exports.
const (
	PageSize = vm.PageSize
	LineSize = vm.LineSize
)

// Log modes (Section 2.6).
const (
	// ModeRecord appends a 16-byte record per write (the default).
	ModeRecord = hwlogger.ModeRecord
	// ModeDirect writes each datum at the corresponding offset in the
	// log segment (mapped-I/O output).
	ModeDirect = hwlogger.ModeDirect
	// ModeIndexed streams bare data values into the log segment.
	ModeIndexed = hwlogger.ModeIndexed
)

// System is one simulated machine running the LVM-extended kernel.
type System struct {
	K *vm.Kernel
}

// DefaultConfig is the ParaDiGM prototype: four 25 MHz CPUs, 64 MiB.
func DefaultConfig() Config { return machine.DefaultConfig() }

// NewSystem boots a machine with the LVM kernel and hardware logger.
func NewSystem(cfg Config) *System {
	return &System{K: vm.NewKernel(cfg)}
}

// NewSystemNoLogger boots a machine without logger hardware (baselines).
func NewSystemNoLogger(cfg Config) *System {
	return &System{K: vm.NewKernelNoLogger(cfg)}
}

// NewSystemOnChip boots a machine whose processor has the
// next-generation on-chip logging support of Section 4.6 instead of the
// prototype's bus logger: log records carry virtual addresses, logging is
// per region (several regions of one segment may log to different
// segments), logged pages stay write-back, and overload is replaced by
// processor stalls. The rest of the API is identical.
func NewSystemOnChip(cfg Config) *System {
	return &System{K: vm.NewKernelOnChip(cfg)}
}

// Machine exposes the underlying simulated machine.
func (s *System) Machine() *machine.Machine { return s.K.M }

// Metrics exposes the machine's counter/histogram registry.
func (s *System) Metrics() *metrics.Registry { return s.K.M.Metrics }

// DeviceShard is the metrics shard non-CPU agents — bus devices, the
// fault injector, the recovery manager — charge their counters to.
func (s *System) DeviceShard() *metrics.Shard { return s.K.M.DeviceShard() }

// MetricsSnapshot aggregates the machine's counters, histograms and
// collected component stats. Take it between simulation steps (the
// simulated machine is single-threaded, so any caller-visible moment is
// quiescent).
func (s *System) MetricsSnapshot() *metrics.Snapshot { return s.K.M.Metrics.Snapshot() }

// Trace exposes the machine's control-plane event tracer (disabled until
// Tracer.Enable is called).
func (s *System) Trace() *metrics.Tracer { return s.K.M.Metrics.Tracer() }

// NewAddressSpace creates an empty address space.
func (s *System) NewAddressSpace() *AddressSpace { return s.K.NewAddressSpace() }

// NewProcess creates a process on CPU cpuID over the given address space.
func (s *System) NewProcess(cpuID int, as *AddressSpace) *Process {
	return s.K.NewProcess(cpuID, as)
}

// Sync drains all in-flight logging work and returns the idle cycle.
func (s *System) Sync() uint64 { return s.K.Sync() }

// EnableWriteAbsorption turns on the bus logger's FIFO write-absorption
// stage with the given window (repeated stores to the same word within the
// window coalesce into one pending record). No-op for on-chip systems;
// window <= 0 disables. Pages carrying transaction markers should be
// excluded with Segment.SetNoAbsorbLimit before enabling.
func (s *System) EnableWriteAbsorption(window int) {
	if s.K.Log != nil {
		s.K.Log.SetAbsorbWindow(window)
	}
}

// EnableGroupCommit turns on batched DMA drains in the bus logger: records
// DMA in groups of up to batch, or when the oldest queued record has aged
// deadline cycles. No-op for on-chip systems; batch <= 1 disables.
func (s *System) EnableGroupCommit(batch int, deadline uint64) {
	if s.K.Log != nil {
		s.K.Log.SetGroupCommit(batch, deadline)
		// Records may now be due sooner than the logger last reported.
		s.K.M.WakeLog()
	}
}

// Elapsed returns the machine's elapsed time in cycles (the latest CPU
// clock).
func (s *System) Elapsed() uint64 { return s.K.M.MaxNow() }

// NewStdSegment creates a memory segment ("new StdSegment(size, flags,
// segmentMan)", Table 1). mgr may be nil for zero-fill pages.
func NewStdSegment(s *System, size uint32, mgr SegmentManager) *Segment {
	return s.K.NewSegment("std", size, mgr)
}

// NewNamedSegment is NewStdSegment with a debug name.
func NewNamedSegment(s *System, name string, size uint32, mgr SegmentManager) *Segment {
	return s.K.NewSegment(name, size, mgr)
}

// NewStdRegion creates a region representing a mapping to the given
// segment ("new StdRegion(segment)", Table 1).
func NewStdRegion(s *System, seg *Segment) *Region {
	return s.K.NewRegion(seg)
}

// NewLogSegment creates a log segment to hold log records ("new
// LogSegment()", Table 1) with an initial capacity in pages. Extend it in
// advance of the log filling (Section 3.2); when it runs out, further
// records are absorbed and lost.
func NewLogSegment(s *System, pages uint32) *Segment {
	return s.K.NewLogSegment("log", pages)
}
