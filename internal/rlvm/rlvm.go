// Package rlvm implements RLVM — recoverable virtual memory built on
// logged virtual memory, as described in Section 2.5 of the paper:
//
// "In RLVM, no set_range() calls are needed. Instead, all recoverable
// segments are logged so all modifications of a logged segment in the
// context of a transaction are automatically recorded. By writing the
// transaction identifier to a special logged location (whenever it
// changes), RLVM can determine the transaction to which a log record
// belongs."
//
// The manager keeps a checkpoint segment holding the last committed state
// as the deferred-copy source of the working (recoverable) segment:
//
//   - a store to recoverable memory is just a logged write (no software);
//   - commit reads the transaction's records out of the LVM log, writes
//     them as one redo record to the RAM-disk write-ahead log (the same
//     commit/truncation machinery as the RVM baseline — the paper notes
//     RLVM does not reduce those costs), and rolls the checkpoint forward;
//   - abort is resetDeferredCopy (back to the committed checkpoint) plus
//     a rewind of the LVM log over the aborted records.
package rlvm

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/cycles"
	"lvm/internal/logcursor"
	"lvm/internal/ramdisk"
	"lvm/internal/rvm"
)

// MarkerBytes reserves the start of the recoverable region for the
// transaction-identifier word ("a special logged location").
const MarkerBytes = 16

// Options tunes the manager.
type Options struct {
	// TruncateEvery truncates the disk log (and the LVM log) after this
	// many commits. 0 = default (8).
	TruncateEvery int
	// LogPages is the LVM log segment capacity in pages. 0 = 64.
	LogPages uint32
}

// Stats mirrors rvm.Stats for comparison.
type Stats struct {
	Txns         uint64
	Records      uint64 // LVM log records consumed at commit
	InTxnCycles  uint64
	CommitCycles uint64
	TruncCycles  uint64
	Aborts       uint64
}

// Manager is an RLVM recoverable segment manager for one process.
type Manager struct {
	sys  *core.System
	p    *core.Process
	disk ramdisk.Device
	wal  *rvm.WAL

	ckpt *core.Segment // committed state (deferred-copy source)
	seg  *core.Segment // working recoverable segment (logged)
	reg  *core.Region
	ls   *core.Segment    // LVM log segment
	cm   *compact.Manager // owns the LVM log's prefix lifecycle
	base core.Addr

	seq       uint32
	inTxn     bool
	txnStart  uint64
	commitOff uint32 // LVM log offset at the last commit

	dirtyImage []rvm.WALRange
	recs       []rvm.WALRange // the commit's records, kept between commits
	buf        []byte         // the commit walk's records
	commits    int
	opts       Options

	Stats Stats
}

// New creates an RLVM recoverable segment of the given usable size (the
// marker word is carved out of the front), recovers committed state from
// disk, and binds the working region (logged) into the process's address
// space. The disk is any ramdisk.Device — crash recovery passes a
// retry-wrapped device so transient faults during the image load and log
// scan are absorbed below this layer.
func New(sys *core.System, p *core.Process, size uint32, disk ramdisk.Device, opts Options) (*Manager, error) {
	if opts.TruncateEvery <= 0 {
		opts.TruncateEvery = 8
	}
	if opts.LogPages == 0 {
		opts.LogPages = 64
	}
	total := size + MarkerBytes
	m := &Manager{
		sys:  sys,
		p:    p,
		disk: disk,
		wal:  rvm.NewWAL(disk, walBase(total)),
		opts: opts,
	}
	m.ckpt = core.NewNamedSegment(sys, "rlvm-checkpoint", total, nil)
	m.seg = core.NewNamedSegment(sys, "rlvm-working", total, nil)
	if err := m.seg.SetSourceSegment(m.ckpt, 0); err != nil {
		return nil, err
	}
	m.reg = core.NewStdRegion(sys, m.seg)
	m.ls = core.NewLogSegment(sys, opts.LogPages)
	if err := m.reg.Log(m.ls); err != nil {
		return nil, err
	}
	base, err := m.reg.Bind(p.AS, 0)
	if err != nil {
		return nil, err
	}
	m.base = base
	m.cm, err = compact.New(sys, compact.Options{Log: m.ls})
	if err != nil {
		return nil, err
	}
	// Recovery: image + committed redo records go into the checkpoint;
	// the working segment then reads through.
	img := make([]byte, total)
	if err := disk.TryReadAt(nil, 0, img); err != nil {
		return nil, fmt.Errorf("rlvm: image load: %w", err)
	}
	m.ckpt.RawWrite(0, img)
	if err := m.wal.Scan(func(seq uint32, ranges []rvm.WALRange) {
		m.seq = seq
		for _, r := range ranges {
			m.ckpt.RawWrite(r.Off, r.Data)
			m.dirtyImage = append(m.dirtyImage, r)
		}
	}); err != nil {
		return nil, err
	}
	return m, nil
}

func walBase(size uint32) uint64 {
	return (uint64(size) + ramdisk.BlockSize - 1) / ramdisk.BlockSize * ramdisk.BlockSize
}

// Base returns the first usable (post-marker) virtual address of the
// recoverable region.
func (m *Manager) Base() core.Addr { return m.base + MarkerBytes }

// Segment returns the working segment.
func (m *Manager) Segment() *core.Segment { return m.seg }

// LogSegment returns the LVM log segment backing the working region (the
// fault injector arms its DMA perturbations against it).
func (m *Manager) LogSegment() *core.Segment { return m.ls }

// CompactManager exposes the log-prefix manager, so fault injection can
// arm its FailHook against the WAL-reset-to-log-truncation window.
func (m *Manager) CompactManager() *compact.Manager { return m.cm }

// markerVA is the logged transaction-identifier word.
func (m *Manager) markerVA() core.Addr { return m.base }

// Begin starts a transaction by writing the new transaction identifier to
// the marker location — one logged write.
func (m *Manager) Begin() error {
	if m.inTxn {
		return fmt.Errorf("rlvm: nested transaction")
	}
	m.seq++
	m.p.Store32(m.markerVA(), m.seq)
	m.inTxn = true
	m.txnStart = m.p.Now()
	m.Stats.Txns++
	return nil
}

// RecoverableWrite32 is the RLVM single recoverable write of Table 3: just
// the store. Logging happens in hardware; the old value exists in the
// checkpoint/log, so no per-write software runs.
func (m *Manager) RecoverableWrite32(va core.Addr, v uint32) error {
	if !m.inTxn {
		return fmt.Errorf("rlvm: write outside transaction")
	}
	m.p.Store32(va, v)
	return nil
}

// Commit makes the transaction durable: the commit daemon consumes the
// LVM log records written since the previous commit, emits them as one
// write-ahead-log record (same device discipline as RVM), and rolls the
// checkpoint segment forward so it holds the committed state. The
// records are walked by logcursor's rule (logcursor.WalkLog): if one is
// not a valid write into the segment, Commit returns an error before
// anything reaches the write-ahead log or the checkpoint. If the
// write-ahead log refuses the record, Commit returns that error and the
// checkpoint is not rolled forward. Either way the transaction stays
// open, and Abort rolls it back in memory. (A refused sync leaves the
// sealed record on the device, where a recovery before the next commit
// still finds it.)
func (m *Manager) Commit() error {
	if !m.inTxn {
		return fmt.Errorf("rlvm: Commit outside transaction")
	}
	m.Stats.InTxnCycles += m.p.Now() - m.txnStart
	commitStart := m.p.Now()

	r := core.NewLogReader(m.sys, m.ls)
	if err := r.Seek(m.commitOff); err != nil {
		return err
	}
	// Every record walked costs the commit daemon its scan.
	scan := func() { m.p.Compute(cycles.CommitPerRecordCycles) }
	recs := m.recs[:0]
	st := logcursor.WalkLog(&m.buf, r, m.seg, func(rec logcursor.Rec) {
		scan()
		data := binary.LittleEndian.AppendUint32(nil, rec.Value)[:rec.Size]
		recs = append(recs, rvm.WALRange{Off: rec.Off, Data: data})
	}, scan)
	m.recs = recs
	m.Stats.Records += uint64(st.Scanned)
	if st.Quarantined() {
		return fmt.Errorf("rlvm: commit: log record %d (offset %d, size %d) is not a write into the segment",
			st.Bad.Idx, st.Bad.Off, st.Bad.Size)
	}
	if err := m.wal.AppendCommit(m.p.CPU, m.seq, recs); err != nil {
		return err
	}
	// Roll the checkpoint forward (CULT for the committed txn).
	for _, r := range recs {
		m.ckpt.RawWrite(r.Off, r.Data)
	}
	m.dirtyImage = append(m.dirtyImage, recs...)
	m.p.Compute(cycles.TxnMgmtCycles / 2)
	m.commitOff = r.Offset()
	// The working segment's modifications are now reflected in the
	// checkpoint; clear the deferred-copy dirty state so a later abort
	// rolls back only past this point.
	if _, err := m.sys.K.ResetDeferredCopySegment(m.seg, nil); err != nil {
		return err
	}
	m.inTxn = false
	m.commits++
	m.Stats.CommitCycles += m.p.Now() - commitStart
	if m.commits%m.opts.TruncateEvery == 0 {
		if err := m.Truncate(); err != nil {
			return err
		}
	}
	return nil
}

// Abort rolls the working segment back to the committed checkpoint with
// resetDeferredCopy and rewinds the LVM log over the aborted records.
func (m *Manager) Abort() error {
	if !m.inTxn {
		return fmt.Errorf("rlvm: Abort outside transaction")
	}
	m.Stats.InTxnCycles += m.p.Now() - m.txnStart
	if _, err := m.sys.K.ResetDeferredCopySegment(m.seg, m.p.CPU); err != nil {
		return err
	}
	if err := m.sys.K.RewindLog(m.ls, m.commitOff); err != nil {
		return err
	}
	m.inTxn = false
	m.Stats.Aborts++
	return nil
}

// Truncate applies committed updates to the durable image, resets the
// write-ahead log, and truncates the LVM log segment. On a device error
// before the reset the write-ahead log keeps its records, so nothing
// committed is lost. A failure of the LVM-log truncation itself — after
// the WAL is already reset — must surface too: this code used to test it
// only for success, leaving commitOff pointing into a log the kernel
// refused to truncate, and the caller none the wiser.
func (m *Manager) Truncate() error {
	start := m.p.Now()
	// One scatter-gather device operation for the image update.
	var bytes uint64
	for _, r := range m.dirtyImage {
		if err := m.disk.TryWriteAt(nil, uint64(r.Off), r.Data); err != nil {
			return fmt.Errorf("rlvm: truncate image write: %w", err)
		}
		bytes += uint64(len(r.Data))
	}
	blocks := (bytes + ramdisk.BlockSize - 1) / ramdisk.BlockSize
	m.p.Compute(ramdisk.OpCycles + blocks*ramdisk.BlockCycles)
	if err := m.disk.TrySync(m.p.CPU); err != nil {
		return fmt.Errorf("rlvm: truncate sync: %w", err)
	}
	m.dirtyImage = m.dirtyImage[:0]
	if err := m.wal.Reset(m.p.CPU); err != nil {
		return err
	}
	if err := m.cm.TruncateAll(); err != nil {
		return fmt.Errorf("rlvm: lvm log truncate after wal reset: %w", err)
	}
	m.commitOff = 0
	m.Stats.TruncCycles += m.p.Now() - start
	return nil
}
