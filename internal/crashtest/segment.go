package crashtest

import (
	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/fault"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// segSize is the logged segment of the log and compact templates.
const segSize = 64 * 1024

// segmentRig is the machine the log and compact templates share: one
// data segment, its marker words barriers to absorption, logged into a
// log segment sized so it never wraps, bound into one process with
// write absorption and group commit on. A template adds what sits
// beside the log (compact's checkpoint manager and disk) and owns its
// recovery path and reference state.
type segmentRig struct {
	sys    *core.System
	seg    *core.Segment
	ls     *core.Segment
	p      *core.Process
	base   core.Addr
	stores int

	in        *fault.Injector
	committed []batch // marker-bracketed, synced batches
	pending   []write // the batch in flight at the crash
	crash     *fault.Crash
	elapsed   uint64 // cycles the workload ran
}

func newSegmentRig(short bool) *segmentRig {
	stores := 4096
	if short {
		stores = 1024
	}
	// Worst case ~3 records per store (tiny batches: marker, store,
	// commit marker); oversize so the log never wraps into absorb mode.
	logPages := uint32(3*stores*16/int(core.PageSize)) + 8
	sys := core.NewSystem(core.Config{
		NumCPUs:   1,
		MemFrames: int(segSize/core.PageSize) + int(logPages) + 4096,
	})
	seg := core.NewNamedSegment(sys, "ct-data", segSize, nil)
	seg.SetNoAbsorbLimit(markerLimit) // marker words are barriers, never coalesced
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, logPages)
	must(reg.Log(ls), "setup")
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	must(err, "setup")
	p := sys.NewProcess(0, as)
	sys.EnableWriteAbsorption(ctAbsorbWindow)
	sys.EnableGroupCommit(ctGroupSize, ctGroupDeadline)
	return &segmentRig{sys: sys, seg: seg, ls: ls, p: p, base: base, stores: stores}
}

// batch is one committed (marker-bracketed, synced) batch and the log
// offset its commit marker reached.
type batch struct {
	endOff uint32
	writes []write
}

// run arms the plan's injector over the machine, the log and disk (nil
// when the template has none), then drives the logged-segment workload
// until the stores are issued or the injector kills the machine:
// batches of seeded stores bracketed by marker words, one Sync per batch
// as the durability fence. after, when set, runs after every committed
// batch with the count so far. run then switches the injector to
// recovery mode and returns the fresh segment recovery rebuilds into.
func (rg *segmentRig) run(t template, plan fault.Plan, disk *ramdisk.Disk, after func(batches int)) *core.Segment {
	rg.in = fault.New(plan)
	rg.in.Arm(rg.sys, disk, rg.ls, rg.seg, markerLimit)
	rg.crash = untilCrash(func() {
		wr := fault.NewRNG(plan.Seed + 1)
		var hot []uint32
		if t.hotset > 0 {
			hot = make([]uint32, t.hotset)
			for i := range hot {
				hot[i] = wordOff(wr, segSize)
			}
		}
		seq := uint32(0)
		for s := 0; s < rg.stores; {
			seq++
			rg.pending = rg.pending[:0]
			rg.p.Store32(rg.base, seq) // begin marker
			n := 1 + wr.Intn(t.maxBatch)
			for j := 0; j < n; j++ {
				off := wordOff(wr, segSize)
				if hot != nil {
					off = hot[wr.Intn(len(hot))]
				}
				val := uint32(wr.Next())
				rg.p.Store32(rg.base+off, val)
				rg.pending = append(rg.pending, write{off, val})
				s++
			}
			rg.p.Store32(rg.base, seq|recovery.MarkerCommit) // commit marker
			rg.sys.Sync()                                    // durability fence
			rg.committed = append(rg.committed, batch{
				endOff: rg.sys.K.LogAppendOffset(rg.ls),
				writes: append([]write(nil), rg.pending...),
			})
			rg.pending = rg.pending[:0]
			if after != nil {
				after(len(rg.committed))
			}
		}
	})
	rg.elapsed = rg.sys.Elapsed()
	rg.in.SetRecoveryMode(true)
	return core.NewNamedSegment(rg.sys, "ct-recovered", segSize, nil)
}

// reference is the state the committed batches leave when every batch
// whose commit marker lies past cut is lost.
func (rg *segmentRig) reference(cut uint32) *recovery.Shadow {
	expected := recovery.NewShadow(segSize)
	for _, b := range rg.committed {
		if b.endOff > cut {
			continue
		}
		for _, wv := range b.writes {
			expected.Write32(wv.off, wv.val)
		}
	}
	return expected
}

// runLog drives the raw logged-segment workload: batches of seeded
// stores bracketed by marker words, one Sync per batch as the
// durability fence, recovery by log replay into a fresh segment.
func runLog(t template, plan fault.Plan, short bool) (outcome, uint64) {
	rg := newSegmentRig(short)
	dst := rg.run(t, plan, nil, nil)

	// Recovery: replay the surviving log into a fresh segment.
	res := recovery.Replay(rg.sys, recovery.ReplayOptions{
		Log: rg.ls, Data: rg.seg, Dst: dst, MarkerLimit: markerLimit,
	})
	rep := rg.in.Report()

	// Reference state: batches whose log extent survived undamaged. A
	// batch replays fully iff its commit marker lies before the
	// quarantine point.
	expected := rg.reference(res.QuarantinedFrom)
	verdict, diffs := classify(expected, rg.pending, dst, markerLimit, res, rep)
	return mkOutcome(t.name, plan, verdict, rg.crash, nil, rep, res, diffs), rg.elapsed
}

// runCompact drives the logged-segment workload with a compact.Manager
// running periodic checkpoint-and-truncate cycles between transactions,
// then recovers through compact.Recover: last committed checkpoint image
// plus a replay of only the log tail. Crashes land before the marker
// commit (the previous checkpoint must win the slot election), inside
// the image write (a torn slot must be ignored), and in the window
// between seal and hardware rewind (image-covered records replay — an
// in-order suffix of absolute writes, which is idempotent). In every
// case all committed transactions must reconstruct exactly.
func runCompact(t template, plan fault.Plan, short bool) (outcome, uint64) {
	const compactEvery = 4 // batches between compaction cycles
	rg := newSegmentRig(short)
	disk := ramdisk.New()
	mgr, err := compact.New(rg.sys, compact.Options{Data: rg.seg, Log: rg.ls, Disk: disk})
	must(err, "setup")
	dst := rg.run(t, plan, disk, func(batches int) {
		if batches%compactEvery == 0 {
			// A refused compaction is not a workload failure: the log
			// keeps its records and recovery falls back to a longer
			// replay. (Injected crashes unwind as panics, not errors, so
			// this is only ever a device refusal.)
			_ = mgr.Compact(rg.p.CPU)
		}
	})

	// Recovery: checkpoint image + tail replay into a fresh segment, the
	// disk behind bounded retry exactly as TPC-A recovery wraps it.
	rr, err := compact.Recover(rg.sys, compact.RecoverOptions{
		Disk: recovery.NewRetryDisk(disk, nil, rg.sys.DeviceShard()),
		Log:  rg.ls, Data: rg.seg, Dst: dst, MarkerLimit: markerLimit,
	})
	must(err, "recovery")
	rep := rg.in.Report()

	// Reference: every committed (marker-bracketed, synced) batch. The
	// plans here injure nothing but timing, so recovery owes an exact
	// reconstruction — any quarantine is unexplained damage and fails.
	expected := rg.reference(recovery.NoQuarantine)
	verdict, diffs := classify(expected, rg.pending, dst, markerLimit, rr.Result, rep)
	return mkOutcome(t.name, plan, verdict, rg.crash, nil, rep, rr.Result, diffs), rg.elapsed
}
