package experiments

import "lvm/internal/core"

// StoreLoop is the simulator-throughput workload shared by the
// BenchmarkSimulatorThroughput benchmark, the zero-allocation regression
// test, `lvmbench stats` and bench/'s sim_store workload: one process
// issuing a logged store every 100 compute cycles across a 64-page
// region, with the log truncated periodically so a bounded log segment
// absorbs an unbounded run. It measures the Go simulator, not the
// modeled machine.
type StoreLoop struct {
	Sys *core.System
	P   *core.Process

	ls       *core.Segment
	r        *core.LogReader
	base     uint32
	i        int
	truncIn  int // steps until the next log truncation (avoids a hot-path divide)
	truncErr error
}

const (
	storeLoopPages         = 64
	storeLoopLogPages      = 16
	storeLoopTruncateEvery = 4000
	storeLoopCompute       = 100

	// Group-commit configuration for the throughput workload: batch up to
	// 8 records per DMA drain, with a deadline comfortably above the
	// ~109-cycle store interarrival so batches actually fill.
	storeLoopGroupSize     = 8
	storeLoopGroupDeadline = 1024
	storeLoopAbsorbWindow  = 8
)

// NewStoreLoop builds the workload's system, region, log and process.
func NewStoreLoop() (*StoreLoop, error) {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 16 << 8})
	seg := core.NewStdSegment(sys, storeLoopPages*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, storeLoopLogPages)
	if err := reg.Log(ls); err != nil {
		return nil, err
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		return nil, err
	}
	// The baseline throughput number exercises the group-commit + write-
	// absorption fast path (the strided store stream absorbs nothing, so
	// the absorption scan cost is included honestly).
	sys.EnableGroupCommit(storeLoopGroupSize, storeLoopGroupDeadline)
	sys.EnableWriteAbsorption(storeLoopAbsorbWindow)
	return &StoreLoop{
		Sys:     sys,
		P:       sys.NewProcess(0, as),
		ls:      ls,
		r:       core.NewLogReader(sys, ls),
		base:    base,
		truncIn: storeLoopTruncateEvery,
	}, nil
}

// Warm faults in every data and log page and runs one full truncate
// period, so that subsequent Steps touch only pre-allocated frames: the
// steady state is allocation-free on the host.
func (sl *StoreLoop) Warm() error {
	for page := uint32(0); page < storeLoopPages; page++ {
		sl.P.Load32(sl.base + page*core.PageSize)
	}
	for page := uint32(0); page < storeLoopLogPages; page++ {
		if _, err := sl.ls.EnsureResident(page); err != nil {
			return err
		}
	}
	for i := 0; i < storeLoopTruncateEvery; i++ {
		sl.Step()
	}
	return sl.truncErr
}

// Step performs one iteration: compute, one logged store, and a log
// truncation every storeLoopTruncateEvery stores.
func (sl *StoreLoop) Step() {
	sl.P.Compute(storeLoopCompute)
	sl.P.Store32(sl.base+uint32(sl.i*4)%(storeLoopPages*core.PageSize), uint32(sl.i))
	sl.i++
	sl.truncIn--
	if sl.truncIn == 0 {
		sl.truncIn = storeLoopTruncateEvery
		if err := sl.r.Truncate(); err != nil && sl.truncErr == nil {
			sl.truncErr = err
		}
	}
}

// Err reports the first log-truncation failure. Step has no error
// return (it is the measured hot path), but a failed truncation lets
// the bounded log wrap into absorb mode and quietly turns the
// throughput numbers into garbage — callers must check after the loop.
func (sl *StoreLoop) Err() error { return sl.truncErr }
