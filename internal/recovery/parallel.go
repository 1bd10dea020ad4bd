package recovery

import (
	"io"

	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/metrics"
	"lvm/internal/sim"
)

// Partitioned parallel replay.
//
// The sequential Replay is a single pass doing three different kinds of
// work per record: (1) read + decode + reverse-translate + validate, (2)
// walk the marker-word transaction protocol, (3) write committed values
// into Dst. (1) and (3) dominate and parallelize; (2) is a trivial
// in-memory state machine but is order-sensitive.
//
// So the parallel path runs three phases:
//
//	A. decode: the record range is cut into one contiguous chunk per
//	   worker; each worker runs its own logcursor.MachineReader over a
//	   quiescent machine (reads only) and fills its chunk's part of one
//	   preallocated buffer with the wire records the sequential scan
//	   walks.
//	B. walk: one sequential pass over that buffer runs the SAME
//	   logcursor walk the sequential scan does — identical Scanned/
//	   Txns/Skipped/quarantine accounting by construction — and routes
//	   each committed write, in log order, to the partition owning its
//	   destination page (page number mod workers).
//	C. apply: after pre-faulting every touched destination page (frame
//	   allocation mutates kernel-global state), the partitions are
//	   applied concurrently. Partitions own disjoint pages and logged
//	   writes never cross a page (size <= 4, size-aligned), and each
//	   partition preserves log order, so the resulting image is
//	   byte-identical to the sequential scan's.

// applyRec is one committed write routed to a page partition.
type applyRec struct {
	segOff uint32
	value  uint32
	size   uint16
}

// replayParallel runs the three-phase parallel replay. ok=false means the
// options cannot be replayed in parallel (non-page-local destination) and
// the caller must take the sequential path.
func replayParallel(sys *core.System, o ReplayOptions) (Result, bool) {
	if o.Dst != nil && !o.Dst.ParallelApplySafe() {
		return Result{}, false
	}
	workers := o.Workers
	res := Result{QuarantinedFrom: NoQuarantine}
	sh := sys.DeviceShard()
	sh.Inc(metrics.RecoveryReplays)
	if sys.K.Log != nil {
		res.LostRecords = sys.K.Log.RecordsLost
	}

	// Establish the scan bounds exactly as the sequential path does: one
	// synced reader, then everything below runs against a quiescent
	// machine.
	lr, start := openRange(sys, o)
	end := lr.End()
	if start > 0 {
		sh.Add(metrics.RecoverySkippedBytes, uint64(start))
	}
	total := int((end - start) / logrec.Size)
	if total == 0 {
		return res, true
	}

	// Phase A: parallel decode + validate into one wire-record buffer.
	buf := make([]byte, total*logrec.Size)
	chunk := (total + workers - 1) / workers
	nchunks := (total + chunk - 1) / chunk
	_, _ = sim.MapWorkers(workers, nchunks, func(ci int) (struct{}, error) {
		lo := ci * chunk
		hi := min(lo+chunk, total)
		r := core.NewLogReaderAt(sys, o.Log, start+uint32(lo)*logrec.Size, start+uint32(hi)*logrec.Size)
		// The range lies inside the log end, so the read fills the chunk;
		// a short one would leave zero records, which quarantine.
		_, err := io.ReadFull(logcursor.NewMachineReader(r, o.Data), buf[lo*logrec.Size:hi*logrec.Size])
		return struct{}{}, err
	})

	// Phase B: sequential walk through the shared cursor, routing
	// committed writes to page partitions instead of applying them.
	parts := make([][]applyRec, workers)
	w := logcursor.NewWalker(logcursor.Config{
		View:        view(o),
		MarkerLimit: o.MarkerLimit,
		End:         end,
		Apply: func(r logcursor.Rec) {
			p := int(r.Off/core.PageSize) % workers
			parts[p] = append(parts[p], applyRec{segOff: r.Off, value: r.Value, size: r.Size})
		},
	})
	fillResult(&res, sh, logcursor.Run(logcursor.NewMachineBytes(buf, start, o.Data.Size()), w))
	applied := res.Applied

	// Phase C: parallel apply over disjoint page partitions.
	if o.Dst != nil && applied > 0 {
		// Pre-fault every destination page first: ensureFrame mutates the
		// physical allocator and the kernel's frame-owner map, which must
		// not happen concurrently. After this, partition writers only
		// touch their own pages' frames and per-page dirty state.
		touched := make([]bool, o.Dst.NumPages())
		for _, part := range parts {
			for _, a := range part {
				page := a.segOff / core.PageSize
				if !touched[page] {
					touched[page] = true
					if _, err := o.Dst.EnsureResident(page); err != nil {
						panic(err) // same as the sequential RawWrite path
					}
				}
			}
		}
		_, _ = sim.MapWorkers(workers, workers, func(wk int) (struct{}, error) {
			for _, a := range parts[wk] {
				applyRecTo(o.Dst, a.segOff, a.value, a.size)
			}
			return struct{}{}, nil
		})
	}
	return res, true
}
