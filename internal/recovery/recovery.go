// Package recovery is the crash-recovery manager for logged virtual
// memory: after a simulated crash it replays the surviving log (via
// core.LogReader) to reconstruct segment state, detects torn or corrupt
// records by validation, applies bounded retry-with-backoff to transient
// device errors, and degrades gracefully — quarantining the damaged log
// tail and reporting the lost-record extent — instead of panicking.
//
// The replay understands the marker-word transaction protocol the RLVM
// manager (and the crashtest log workload) uses: a store to the marker
// area with the high bit clear opens a transaction, one with the high
// bit set (MarkerCommit) commits it. Records between markers are
// buffered and applied only when their commit marker is found, so an
// uncommitted tail is discarded rather than half-applied.
package recovery

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/ramdisk"
)

// MarkerCommit is the high bit of a marker-word value: set = the store
// commits the transaction the marker opened.
const MarkerCommit = logcursor.MarkerCommit

// NoQuarantine is the QuarantinedFrom value when the whole log replayed
// cleanly.
const NoQuarantine = logcursor.NoQuarantine

// ReplayOptions configures one replay.
type ReplayOptions struct {
	// Log is the surviving log segment; Data is the logged data segment
	// whose records are replayed.
	Log  *core.Segment
	Data *core.Segment
	// Dst receives the replayed writes (typically a fresh segment, or
	// the data segment itself for in-place reconstruction). nil = dry
	// run (validate and count only).
	Dst *core.Segment
	// MarkerLimit: data offsets below this are marker words driving the
	// transaction protocol above. 0 disables marker interpretation.
	MarkerLimit uint32
	// ApplyAll applies every valid record immediately, ignoring
	// transaction bracketing (used by edge tests that replay raw logs).
	ApplyAll bool
	// End overrides the log-end offset (clamped to the segment size).
	// 0 = ask the kernel for the hardware append offset. Crash recovery
	// sets this when the device head did not survive the crash.
	End uint32
	// Start is the log offset the scan begins at — a committed
	// checkpoint's replay-skip point (internal/compact), making recovery
	// O(tail) instead of O(log). It is rounded down to a record boundary;
	// state the skipped prefix described must come from the checkpoint
	// image the caller loaded into Dst. 0 replays the whole log.
	Start uint32
	// Workers > 1 enables partitioned parallel replay: record decode and
	// validation are sharded across host workers, the marker-transaction
	// walk stays sequential (it is a cheap in-memory pass), and committed
	// writes are applied concurrently with pages partitioned across
	// workers — producing a Result and destination image byte-identical
	// to the sequential scan. Falls back to the sequential path when the
	// destination segment's write path is not page-local.
	Workers int
}

// Result reports what one replay did and what it could not recover.
type Result struct {
	Scanned        int // records read from the log
	Applied        int // records applied to Dst
	Skipped        int // records resolving to other segments
	Txns           int // committed transactions replayed
	InvalidRecords int // records rejected by validation (0 or 1: first stops the scan)
	IncompleteTail int // buffered records discarded (no commit marker / quarantine)

	// QuarantinedFrom/QuarantinedBytes describe the damaged tail: the
	// log offset of the first invalid record and the extent from there
	// to the log end. QuarantinedFrom == NoQuarantine when clean.
	QuarantinedFrom  uint32
	QuarantinedBytes uint32

	LostRecords uint64 // hardware-counted records lost before the crash

	// LastSeq is the highest committed transaction sequence number. A
	// commit whose sequence regresses below an earlier one (only a
	// damaged log produces that) does not lower it; it is counted in
	// NonMonotonicCommits instead.
	LastSeq             uint32
	NonMonotonicCommits int
}

// Quarantined reports whether the replay hit a damaged tail.
func (r *Result) Quarantined() bool { return r.QuarantinedFrom != NoQuarantine }

// Replay scans the log and reconstructs data-segment state per the
// options. It never panics on damaged input: the first record that
// fails validation ends the scan and quarantines the rest of the log.
// The scan itself is the shared logcursor walk — recovery contributes
// only the machine bookkeeping (metrics, lost-record count) and the
// destination-segment apply.
func Replay(sys *core.System, o ReplayOptions) Result {
	if o.Workers > 1 {
		if res, ok := replayParallel(sys, o); ok {
			return res
		}
	}
	res := Result{QuarantinedFrom: NoQuarantine}
	sh := sys.DeviceShard()
	sh.Inc(metrics.RecoveryReplays)
	if sys.K.Log != nil {
		res.LostRecords = sys.K.Log.RecordsLost
	}

	lr, start := openRange(sys, o)
	if start > 0 {
		sh.Add(metrics.RecoverySkippedBytes, uint64(start))
	}
	w := logcursor.NewWalker(logcursor.Config{
		View:        view(o),
		MarkerLimit: o.MarkerLimit,
		End:         lr.End(),
		Apply: func(r logcursor.Rec) {
			if o.Dst != nil {
				applyRecTo(o.Dst, r.Off, r.Value, r.Size)
			}
		},
	})
	// A MachineReader fails only at its end (io.EOF), so the walk
	// returns no read error.
	st, _ := logcursor.RunReader(logcursor.NewMachineReader(lr, o.Data), o.Data.Size(), w)
	fillResult(&res, sh, st)
	return res
}

// openRange opens o's log for a replay: synced with the logger, its end
// overridden by o.End, and positioned at o.Start rounded down to a
// record and clamped to the end's last whole record, so a start past an
// end that is not record-aligned replays nothing, cleanly. It returns
// the reader and that start.
func openRange(sys *core.System, o ReplayOptions) (*core.LogReader, uint32) {
	lr := core.NewLogReader(sys, o.Log)
	if o.End != 0 {
		lr.SetEnd(o.End)
	}
	start := min(o.Start, lr.End()) / logrec.Size * logrec.Size
	return core.NewLogReaderAt(sys, o.Log, start, lr.End()), start
}

// view maps the replay options onto the cursor's view.
func view(o ReplayOptions) logcursor.View {
	if o.ApplyAll {
		return logcursor.ApplyAll
	}
	return logcursor.Committed
}

// FromStats is the Result a cursor walk's stats describe. A machine-free
// replay (lvmd.RecoverImage over the tail mirror's bytes) reports exactly
// this; Replay adds the hardware lost-record count.
func FromStats(st logcursor.Stats) Result {
	return Result{
		Scanned:             st.Scanned,
		Applied:             st.Applied,
		Skipped:             st.Skipped,
		Txns:                st.Txns,
		InvalidRecords:      st.InvalidRecords,
		IncompleteTail:      st.IncompleteTail,
		QuarantinedFrom:     st.QuarantinedFrom,
		QuarantinedBytes:    st.QuarantinedBytes,
		LastSeq:             st.LastSeq,
		NonMonotonicCommits: st.NonMonotonicCommits,
	}
}

// fillResult copies the cursor's walk stats into a Result and charges
// the recovery metrics.
func fillResult(res *Result, sh *metrics.Shard, st logcursor.Stats) {
	lost := res.LostRecords
	*res = FromStats(st)
	res.LostRecords = lost
	if st.InvalidRecords > 0 {
		sh.Add(metrics.RecoveryInvalidRecords, uint64(st.InvalidRecords))
		sh.Add(metrics.QuarantinedBytes, uint64(st.QuarantinedBytes))
	}
	sh.Add(metrics.RecoveryRecordsApplied, uint64(st.Applied))
}

// applyRecTo writes one record's value bytes into dst.
func applyRecTo(dst *core.Segment, off, value uint32, size uint16) {
	var buf [4]byte
	n := int(size)
	if n > 4 {
		n = 4
	}
	for b := 0; b < n; b++ {
		buf[b] = byte(value >> (8 * b))
	}
	dst.RawWrite(off, buf[:n])
}

// Policy bounds the retry loop of a RetryDisk.
type Policy struct {
	// Attempts is the total number of tries per operation (default 5).
	Attempts int
	// BackoffCycles is the simulated-cycle delay before the first
	// retry; it doubles per retry (default 256).
	BackoffCycles uint64
}

// DefaultPolicy returns the default retry policy.
func DefaultPolicy() Policy { return Policy{Attempts: 5, BackoffCycles: 256} }

// RetryDisk wraps a ramdisk.Device with bounded retry-with-backoff for
// transient errors. Backoff is charged to the calling CPU's simulated
// clock (when one is given), so retries cost deterministic simulated
// time, not host time.
type RetryDisk struct {
	inner ramdisk.Device
	pol   Policy
	sh    *metrics.Shard

	// Retries counts individual retry attempts; Exhausted counts
	// operations that failed even after all attempts.
	Retries   uint64
	Exhausted uint64
}

// NewRetryDisk wraps inner. pol == nil uses DefaultPolicy; sh (may be
// nil) receives RecoveryRetries increments.
func NewRetryDisk(inner ramdisk.Device, pol *Policy, sh *metrics.Shard) *RetryDisk {
	p := DefaultPolicy()
	if pol != nil {
		p = *pol
		if p.Attempts <= 0 {
			p.Attempts = 5
		}
		if p.BackoffCycles == 0 {
			p.BackoffCycles = 256
		}
	}
	return &RetryDisk{inner: inner, pol: p, sh: sh}
}

// TryReadAt implements ramdisk.Device.
func (d *RetryDisk) TryReadAt(cpu *machine.CPU, off uint64, out []byte) error {
	return d.do(cpu, "read", func() error { return d.inner.TryReadAt(cpu, off, out) })
}

// TryWriteAt implements ramdisk.Device.
func (d *RetryDisk) TryWriteAt(cpu *machine.CPU, off uint64, b []byte) error {
	return d.do(cpu, "write", func() error { return d.inner.TryWriteAt(cpu, off, b) })
}

// TrySync implements ramdisk.Device.
func (d *RetryDisk) TrySync(cpu *machine.CPU) error {
	return d.do(cpu, "sync", func() error { return d.inner.TrySync(cpu) })
}

func (d *RetryDisk) do(cpu *machine.CPU, name string, op func() error) error {
	back := d.pol.BackoffCycles
	var err error
	for a := 0; a < d.pol.Attempts; a++ {
		if a > 0 {
			d.Retries++
			if d.sh != nil {
				d.sh.Inc(metrics.RecoveryRetries)
			}
			if cpu != nil {
				cpu.Compute(back)
			}
			back *= 2
		}
		if err = op(); err == nil {
			return nil
		}
	}
	d.Exhausted++
	return fmt.Errorf("recovery: disk %s failed after %d attempts: %w", name, d.pol.Attempts, err)
}
