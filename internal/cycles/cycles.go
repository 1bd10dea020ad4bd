// Package cycles defines the cycle-cost calibration constants for the
// simulated ParaDiGM machine used throughout the LVM reproduction.
//
// All results in the paper (Cheriton & Duda, "Logged Virtual Memory",
// SOSP 1995) are reported in CPU cycles of a 25 MHz 68040, so the entire
// reproduction is denominated in cycles. The primitive costs below are
// calibrated to Table 2 of the paper:
//
//	Operation            Total time   Bus time
//	Word write-through    6 cycles     5 cycles
//	Cache block write     9 cycles     8 cycles
//	Log-record DMA       18 cycles     8 cycles
//
// One cycle is 40 ns. The logger timestamps records with a 6.25 MHz clock,
// i.e. one timestamp tick per four CPU cycles.
package cycles

// Machine clock parameters.
const (
	// CPUMHz is the prototype's processor clock (25 MHz 68040s).
	CPUMHz = 25
	// CyclesPerSecond converts cycle counts to wall-clock rates.
	CyclesPerSecond = CPUMHz * 1_000_000
	// NanosPerCycle is the cycle time (40 ns at 25 MHz).
	NanosPerCycle = 40
	// TimestampShift converts CPU cycles to logger timestamp ticks:
	// the logger clock runs at 6.25 MHz = 25 MHz / 4.
	TimestampShift = 2
)

// Table 2: basic machine operations.
const (
	// WordWriteThroughTotal is the CPU-visible cost of a single word
	// write on a write-through page (Table 2, line 1).
	WordWriteThroughTotal = 6
	// WordWriteThroughBus is the bus occupancy of that write.
	WordWriteThroughBus = 5

	// BlockWriteTotal is the cost of writing one 16-byte cache block to
	// the second-level cache / memory (Table 2, line 2). The same cost is
	// charged for a block read (L1 line fill), which uses the bus the
	// same way in the prototype.
	BlockWriteTotal = 9
	// BlockWriteBus is the bus occupancy of a block write.
	BlockWriteBus = 8

	// LogRecordDMATotal is the cost of the logger DMAing one 16-byte log
	// record into memory (Table 2, line 3).
	LogRecordDMATotal = 18
	// LogRecordDMABus is the bus occupancy of the record DMA.
	LogRecordDMABus = 8
)

// Cache geometry (Section 4.1).
const (
	// LineSize is the cache line size of the 68040 on-chip caches and of
	// the 4 MiB second-level cache (16 bytes).
	LineSize = 16
	// LineShift is log2(LineSize).
	LineShift = 4
	// L1DataBytes is the on-chip data-cache capacity. The 68040 has an
	// 8 KiB split I/D cache; we model the 4 KiB data half.
	L1DataBytes = 4096
	// L1Lines is the number of direct-mapped L1 data lines.
	L1Lines = L1DataBytes / LineSize
	// L2Bytes is the shared second-level cache capacity (4 MiB).
	L2Bytes = 4 << 20

	// L1HitCycles is the cost of an L1 data-cache hit.
	L1HitCycles = 1
	// L1FillCycles is the cost of filling an L1 line from the
	// second-level cache (a block read over the bus).
	L1FillCycles = BlockWriteTotal
	// L1FillBus is the bus occupancy of the fill.
	L1FillBus = BlockWriteBus
)

// Logger device parameters (Section 3.1).
const (
	// LoggerFIFOEntries is the combined capacity of the logger's write
	// FIFO and log-record FIFO ("The FIFOs hold 819 entries").
	LoggerFIFOEntries = 819
	// LoggerOverloadThreshold is the occupancy at which the logger
	// raises the overload interrupt (512 entries).
	LoggerOverloadThreshold = 512
	// LoggerLookupCycles is the logger-internal time to pop a write from
	// the write FIFO, look up the page-mapping table and the log table,
	// and assemble the record, before the DMA begins. Calibrated so that
	// one full record service costs LoggerLookupCycles +
	// LogRecordDMATotal = 33 cycles, which places the overload threshold
	// at roughly one logged write per 27 compute cycles, matching
	// Figures 11 and 12 of the paper.
	LoggerLookupCycles = 15
	// LoggerServiceCycles is the end-to-end service time for one record
	// in the uncontended case.
	LoggerServiceCycles = LoggerLookupCycles + LogRecordDMATotal

	// OverloadKernelCycles is the software cost of one overload event:
	// the interrupt, suspending every process that may generate log
	// data, and resuming them after the FIFOs drain. Together with
	// draining ~512 queued records at LoggerServiceCycles each, one
	// overload costs over 30,000 cycles, matching Section 4.5.3
	// ("overloading the logger is so expensive (more than 30,000
	// cycles)").
	OverloadKernelCycles = 13_000
)

// Virtual-memory software costs (Section 3.2 and Section 5.1).
const (
	// PageFaultCycles is the base cost of kernel page-fault handling
	// (allocate a frame, install the mapping, return to the user). The
	// paper's Section 5.1 argues a write-protect fault including
	// completing the write "would take over 3000 cycles on current
	// processors, even if implemented at a low level in the operating
	// system"; we use that figure for protection-fault-based baselines
	// and for first-touch faults.
	PageFaultCycles = 3000
	// LoggingFaultCycles is the kernel cost of servicing a logging fault
	// (reload a page-mapping-table or log-table entry, or advance the
	// log to its next page). These occur once per 256 records (one log
	// page) in the common case.
	LoggingFaultCycles = 500
	// LoggerEntrySetupCycles is the incremental page-fault cost of
	// loading the logger's page-mapping-table entry for a logged page.
	LoggerEntrySetupCycles = 120
)

// Deferred-copy and bcopy costs (Sections 3.3 and 4.4). Calibrated so that
// resetDeferredCopy() beats bcopy() when less than about two-thirds of the
// segment is dirty (Figure 9).
const (
	// BcopyLineCycles is the cost of copying one 16-byte line with
	// bcopy: a block read plus a block write.
	BcopyLineCycles = 2 * BlockWriteTotal
	// ResetLineCycles is the software cost of resetting one modified
	// second-level-cache line during resetDeferredCopy: inspecting and
	// rewriting the line's tag/source pointer over the bus. At 27 cycles
	// per line a fully dirty page costs 1.5x a bcopy of the page, which
	// places the crossover at two-thirds dirty.
	ResetLineCycles = 27
	// ResetPageCheckCycles is the per-page cost of checking the dirty
	// bit during resetDeferredCopy (the optimization in Section 3.3 that
	// skips clean pages without inspecting every line).
	ResetPageCheckCycles = 20
)

// RVM baseline costs (Section 4.2, Table 3). The Coda RVM set_range()
// bookkeeping (range-list insertion, allocation of the old-value copy,
// cross-checking overlapping ranges) dominates the 3515-cycle recoverable
// write the paper measures.
const (
	// SetRangeOverheadCycles is the fixed software cost of one
	// set_range() call in the RVM baseline. Calibrated so a single
	// 4-byte recoverable write (set_range + old-value save + the store)
	// measures ~3515 cycles, Table 3.
	SetRangeOverheadCycles = 3505
	// SetRangeByteCycles is the per-byte cost of saving the old value.
	SetRangeByteCycles = 2
	// TxnMgmtCycles is the per-transaction begin/commit bookkeeping cost
	// (transaction record allocation, list management) shared by RVM and
	// RLVM.
	TxnMgmtCycles = 900
	// CommitPerRangeCycles is the software cost of marshalling one
	// modified range into the commit record.
	CommitPerRangeCycles = 250
	// CommitPerRecordCycles is the software cost for RLVM's commit
	// daemon to consume one LVM log record.
	CommitPerRecordCycles = 60
)

// MemSpeed is a convenience: cycles to touch a word in the steady state
// (L1 hit).
const MemSpeed = L1HitCycles

// ToTimestamp converts a cycle count to a logger timestamp (6.25 MHz).
func ToTimestamp(c uint64) uint32 { return uint32(c >> TimestampShift) }
