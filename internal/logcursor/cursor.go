// Package logcursor is the single validated cursor over the hardware
// log's record stream, and every consumer of that stream walks it here:
// crash recovery's marker-protocol replay (internal/recovery, sequential
// and page-partitioned parallel), log-shipping catch-up and replica
// apply (internal/logship), the DSM consumer and producer (internal/dsm),
// compaction's tail replay (internal/compact), the daemon's restart over
// its tail mirror (internal/lvmd), RLVM's commit (internal/rlvm) and Time
// Warp's roll-forward and CULT (internal/timewarp). The paper's argument (Sections 2.4, 4.5) is that one log is the single
// source of truth for recovery, replication, and distributed
// consistency; this package is the one place its records are decoded,
// validated, bracketed into transactions, and quarantined when damaged.
//
// Every walk is over one form: the paper's 16-byte record (Section 3.1)
// as wire bytes, its address word a data-segment offset. A logship batch
// and the lvmd tail mirror already hold records that way (AppendData
// writes them), and MachineReader turns a range of a hardware log into
// it through the kernel's reverse translation. One loop walks those
// bytes, behind Run (a stream held whole) and RunReader (an io.Reader,
// through one fixed-size buffer, so a walk's memory is a chunk, not the
// stream), under one of two views —
//
//   - Committed: marker-word transaction bracketing. A store to the
//     marker area (offset < MarkerLimit) with MarkerCommit clear opens
//     a transaction, one with it set commits; records in between are
//     buffered and applied only at their commit marker, so an
//     uncommitted tail is discarded rather than half-applied. An open
//     transaction's records are contiguous in the stream, so it is
//     buffered as a byte range — validated once as it is scanned,
//     decoded again only when its commit marker applies it.
//   - ApplyAll: every valid record applies immediately, markers
//     included. Replication replicas use this (the replica image keeps
//     the producer's marker words; rollback is a separate ledger), as
//     do WalkLog's consumers — RLVM's commit, whose marker word goes
//     into its write-ahead-log record, Time Warp and the DSM producer.
//
// — and the first record that fails validation quarantines the rest of
// the stream: nothing past the damage applies, and Stats reports the
// quarantine anchor and extent. The walker never panics on damaged
// input; each consumer says what a quarantine means to it. Recovery,
// the replica, the DSM consumer, compaction and the daemon's restart
// degrade, applying what precedes the damage; RLVM's commit fails and leaves the
// transaction open; Time Warp and the DSM producer panic, since only a
// simulator bug can damage a log that only their own stores wrote.
// With an Image sink (Config.Image) no Rec is built at all: each applied
// write is stored from the stream's bytes straight into the image.
//
// A machine log can hold records the bytes of a shipped batch never do:
// ones whose address no longer resolves (or resolves to a log segment),
// and ones of another segment sharing the log. MachineReader writes the
// first in a form ValidWrite rejects and the second in a foreign form
// that the walk counts as Skipped — but only on a stream MachineReader
// produced. On any other stream the foreign form is just invalid, so no
// byte pattern in a tail file or a shipped batch changes verdict.
package logcursor

// MarkerCommit is the high bit of a marker-word value: set = the store
// commits the transaction the marker opened.
const MarkerCommit = uint32(0x8000_0000)

// NoQuarantine is the QuarantinedFrom value when the whole stream
// walked cleanly.
const NoQuarantine = ^uint32(0)

// Rec is one log record as the walk hands it to Apply (and reports the
// record that quarantined it in Stats.Bad): addressed by its offset
// within the data segment being walked.
type Rec struct {
	// Off is the byte offset of the write within the data segment.
	Off uint32
	// Value holds the written bytes, little-endian in the low Size bytes.
	Value uint32
	// Size is the write size in bytes (1, 2, or 4 when valid).
	Size uint16
	// LogOff is the byte offset of the record within the log stream —
	// the quarantine anchor when this record fails validation.
	LogOff uint32
	// Idx is the ordinal of the record within this walk (0-based).
	Idx int
	// Valid reports that the record passed validation: a write size the
	// hardware emits, a size-aligned in-bounds offset and, on a machine
	// stream, an address that still resolves and is not a write into a
	// log segment. Only Stats.Bad can be invalid; it is valid when the
	// record broke the marker protocol instead.
	Valid bool
}

// IsMarker is the canonical marker-word classifier: a whole-word store
// into the marker area. This is the one rule every consumer shares —
// recovery's replay brackets transactions with it, and the replication
// replica's undo ledger tracks begin/commit by it. Sub-word stores into
// the marker area are NOT markers; in the Committed view the Walker
// treats them as protocol violations and quarantines (the area is
// reserved for the protocol, so a partial store there can only be
// damage). limit == 0 disables marker interpretation entirely.
func IsMarker(off uint32, size uint16, limit uint32) bool {
	return off < limit && size == 4
}

// ValidWrite reports whether (off, size) can describe a real logged
// write into a segment of segSize bytes: a size the hardware emits, a
// size-aligned offset, and a range inside the segment. This is the
// record-validation rule of every walk of the log (see the package doc
// for the consumers), all of which quarantine on the first record that
// fails it.
func ValidWrite(off uint32, size uint16, segSize uint32) bool {
	switch size {
	case 1, 2, 4:
	default:
		return false
	}
	// Sizes are powers of two, so alignment is a mask; the range check
	// is 64-bit so an offset near 2^32 cannot wrap back into bounds.
	ws := uint32(size)
	return off&(ws-1) == 0 && uint64(off)+uint64(ws) <= uint64(segSize)
}

// View selects how the Walker treats transaction bracketing.
type View uint8

const (
	// Committed applies only marker-bracketed, committed writes.
	Committed View = iota
	// ApplyAll applies every valid record immediately, markers included.
	ApplyAll
)

// Config configures one Walker.
type Config struct {
	// View selects committed-only or apply-all semantics.
	View View
	// MarkerLimit: data offsets below this are marker words driving the
	// transaction protocol. 0 disables marker interpretation.
	MarkerLimit uint32
	// End is the log end offset, used to size the quarantined extent
	// (QuarantinedBytes = End - quarantine anchor).
	End uint32
	// Apply receives each record to apply, in log order. nil with no
	// Image = dry run (validate and count only).
	Apply func(Rec)
	// Image is the other sink: each write the walk applies is stored
	// straight into Image[Off:] — Size bytes of Value, little-endian —
	// with the same records in the same order Apply would get, but no
	// Rec built and no call made per record. Validation bounds a write
	// by the walked segment's size, so Image must span the segment.
	// Apply and Image are mutually exclusive.
	Image []byte
}

// Stats reports what one walk did and what it could not recover. The
// field meanings mirror recovery.Result exactly — recovery builds its
// Result from these counters.
type Stats struct {
	Scanned        int // records walked
	Applied        int // records applied (handed to Apply or stored into Image)
	Skipped        int // records resolving to other segments
	Txns           int // committed transactions walked
	InvalidRecords int // records rejected (0 or 1: the first halts the walk)
	IncompleteTail int // buffered records discarded (no commit marker / quarantine)

	// QuarantinedFrom/QuarantinedBytes describe the damaged tail: the
	// stream offset of the first invalid record and the extent from
	// there to End. QuarantinedFrom == NoQuarantine when clean.
	QuarantinedFrom  uint32
	QuarantinedBytes uint32

	// LastSeq is the highest committed transaction sequence number
	// observed. A commit whose sequence regresses below an earlier one
	// does not lower it; it increments NonMonotonicCommits instead (a
	// damaged or replayed-out-of-order log can only have produced it —
	// genuine commit sequences are monotone).
	LastSeq             uint32
	NonMonotonicCommits int

	// Bad is the record that quarantined the walk (zero when clean).
	Bad Rec
}

// Quarantined reports whether the walk hit a damaged tail.
func (s *Stats) Quarantined() bool { return s.QuarantinedFrom != NoQuarantine }

// Walker is the cursor's state machine: it validates the records of a
// stream in log order, brackets transactions, applies per its view, and
// halts at the first damaged record. Run and RunReader drive it.
type Walker struct {
	cfg    Config
	st     Stats
	halted bool
}

// NewWalker builds a walker over cfg. It panics on a config that sets
// both Apply and Image: a walk has one sink.
func NewWalker(cfg Config) *Walker {
	if cfg.Apply != nil && cfg.Image != nil {
		panic("logcursor: Config sets both Apply and Image")
	}
	return &Walker{cfg: cfg, st: Stats{QuarantinedFrom: NoQuarantine}}
}

// commit counts a commit marker carrying sequence number seq.
func (w *Walker) commit(seq uint32) {
	if seq >= w.st.LastSeq {
		w.st.LastSeq = seq
	} else {
		w.st.NonMonotonicCommits++
	}
	w.st.Txns++
}

// finish ends the walk: the open transaction's buffered records, which
// no commit marker reached, are discarded into IncompleteTail, and the
// final Stats are returned.
func (w *Walker) finish(buffered int) Stats {
	if !w.halted {
		w.st.IncompleteTail += buffered
		w.halted = true
	}
	return w.st
}

// quarantine halts the walk at r, the first damaged record, discarding
// the open transaction's buffered records.
func (w *Walker) quarantine(r *Rec, buffered int) {
	w.st.InvalidRecords++
	w.st.QuarantinedFrom = r.LogOff
	w.st.QuarantinedBytes = w.cfg.End - r.LogOff
	w.st.IncompleteTail += buffered
	w.st.Bad = *r
	w.halted = true
}

// Run walks every record of src through w and returns the final stats:
// the whole cursor in one call, RunReader's loop over the source's bytes
// as one final chunk, with no copy and no Rec built for a record until
// it is applied.
func Run(src *BytesSource, w *Walker) Stats {
	if !w.halted {
		w.scan(&src.s)
	}
	return w.finish(src.s.pending())
}
