// Package dsm implements the distributed-consistency comparison of
// Section 2.6 of the paper: log-based consistency versus Munin-style
// twin/diff processing for write-shared data.
//
// In Munin, "determining the updates is implemented by write-protecting
// pages, taking a page fault on write to such a page, creating a twin of
// the page and performing a word-by-word comparison to generate a list of
// differences when sending an update on a write-shared object."
//
// With log-based consistency, the producer's writes are logged by the LVM
// hardware as they happen; at lock release the updates are already
// enumerated, so release-time processing "is reduced to the time required
// to synchronize with consumers". The trade-off the paper acknowledges —
// "the amount of data transmitted can be more with LVM if locations are
// updated repeatedly between acquiring and releasing locks" — is
// measurable here and exercised by the ablation benchmark.
package dsm

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/core"
	"lvm/internal/cycles"
	"lvm/internal/logcursor"
)

// Cost model for the software consistency layer.
const (
	// DiffWordCycles is the per-word cost of Munin's twin comparison.
	DiffWordCycles = 3
	// TwinLineCycles is the per-16-byte cost of creating a page twin
	// (a bcopy of the page).
	TwinLineCycles = cycles.BcopyLineCycles
	// WriteProtectCycles is the kernel cost of re-protecting a page.
	WriteProtectCycles = 400
	// RecordCycles is the per-log-record cost of building an update
	// entry from the LVM log.
	RecordCycles = 40
	// SkipCycles is the per-record cost of recognizing and skipping a
	// record that belongs to another segment sharing the log: the
	// consumer still decodes the record and resolves its address, but
	// builds no entry. Charged instead of RecordCycles, never on top of
	// it.
	SkipCycles = 8
	// ApplyWordCycles is the consumer-side per-entry application cost.
	ApplyWordCycles = 6
	// MsgHeaderBytes and EntryBytes define the update-message encoding:
	// each entry carries a 4-byte offset and a 4-byte datum.
	MsgHeaderBytes = 32
	EntryBytes     = 8
)

// Entry is one word update in a consistency message.
type Entry struct {
	Off uint32
	Val uint32
}

// UpdateMsg is the update set shipped at lock release.
type UpdateMsg struct {
	Entries []Entry
	Bytes   int
}

// ReleaseStats reports the producer-side cost of one release.
type ReleaseStats struct {
	Cycles  uint64
	Bytes   int
	Entries int
}

// Producer is a write-shared-object producer under some protocol.
type Producer interface {
	// Write updates one shared word (within the critical section).
	Write(off uint32, val uint32)
	// Release ends the critical section, returning the update message
	// and the release-time cost.
	Release() (UpdateMsg, ReleaseStats)
	// Base returns the region's virtual base (for direct access).
	Base() core.Addr
	// WriteCycles reports total cycles spent inside Write calls.
	WriteCycles() uint64
}

// --- Munin twin/diff producer ---

// MuninProducer implements twin/diff over an unlogged region.
type MuninProducer struct {
	sys  *core.System
	p    *core.Process
	seg  *core.Segment
	base core.Addr
	size uint32

	twins       map[uint32][]byte // page -> twin copy
	writeCycles uint64
}

// NewMuninProducer maps a shared segment of the given size.
func NewMuninProducer(sys *core.System, p *core.Process, size uint32) (*MuninProducer, error) {
	seg := core.NewNamedSegment(sys, "munin-shared", size, nil)
	reg := core.NewStdRegion(sys, seg)
	base, err := reg.Bind(p.AS, 0)
	if err != nil {
		return nil, err
	}
	// Fault pages in once so steady-state runs don't mix initial page
	// faults into the protocol costs.
	for off := uint32(0); off < size; off += core.PageSize {
		p.Load32(base + off)
	}
	return &MuninProducer{sys: sys, p: p, seg: seg, base: base, size: size, twins: map[uint32][]byte{}}, nil
}

// Base returns the region base.
func (m *MuninProducer) Base() core.Addr { return m.base }

// WriteCycles reports cycles spent in Write.
func (m *MuninProducer) WriteCycles() uint64 { return m.writeCycles }

// Write performs one shared write: the first write to a protected page
// takes a protection fault and creates a twin.
func (m *MuninProducer) Write(off uint32, val uint32) {
	start := m.p.Now()
	page := off >> 12
	if _, ok := m.twins[page]; !ok {
		// Write-protection fault + twin creation.
		m.p.Compute(cycles.PageFaultCycles)
		m.twins[page] = m.seg.RawRead(page*core.PageSize, core.PageSize)
		m.p.Compute(uint64(core.PageSize/core.LineSize) * TwinLineCycles)
	}
	m.p.Store32(m.base+off, val)
	m.writeCycles += m.p.Now() - start
}

// Release diffs every twinned page word by word and re-protects it.
func (m *MuninProducer) Release() (UpdateMsg, ReleaseStats) {
	start := m.p.Now()
	var msg UpdateMsg
	// Deterministic page order.
	for page := uint32(0); page*core.PageSize < m.size; page++ {
		twin, ok := m.twins[page]
		if !ok {
			continue
		}
		m.p.Compute(uint64(core.PageSize/4) * DiffWordCycles)
		cur := m.seg.RawRead(page*core.PageSize, core.PageSize)
		for w := 0; w < core.PageSize; w += 4 {
			if cur[w] != twin[w] || cur[w+1] != twin[w+1] || cur[w+2] != twin[w+2] || cur[w+3] != twin[w+3] {
				msg.Entries = append(msg.Entries, Entry{
					Off: page*core.PageSize + uint32(w),
					Val: binary.LittleEndian.Uint32(cur[w:]),
				})
			}
		}
		m.p.Compute(WriteProtectCycles)
		delete(m.twins, page)
	}
	msg.Bytes = MsgHeaderBytes + len(msg.Entries)*EntryBytes
	st := ReleaseStats{Cycles: m.p.Now() - start, Bytes: msg.Bytes, Entries: len(msg.Entries)}
	return msg, st
}

// --- Log-based producer ---

// LVMProducer ships updates from the LVM log.
type LVMProducer struct {
	sys    *core.System
	p      *core.Process
	seg    *core.Segment
	ls     *core.Segment
	reader *core.LogReader
	buf    []byte // Release's records, kept between releases
	base   core.Addr

	writeCycles uint64
}

// NewLVMProducer maps a logged shared segment.
func NewLVMProducer(sys *core.System, p *core.Process, size uint32, logPages uint32) (*LVMProducer, error) {
	if logPages == 0 {
		logPages = 64
	}
	seg := core.NewNamedSegment(sys, "lvm-shared", size, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, logPages)
	if err := reg.Log(ls); err != nil {
		return nil, err
	}
	base, err := reg.Bind(p.AS, 0)
	if err != nil {
		return nil, err
	}
	for off := uint32(0); off < size; off += core.PageSize {
		p.Load32(base + off)
	}
	l := &LVMProducer{sys: sys, p: p, seg: seg, ls: ls, base: base}
	l.reader = core.NewLogReader(sys, ls)
	return l, nil
}

// Base returns the region base.
func (l *LVMProducer) Base() core.Addr { return l.base }

// Segment exposes the shared data segment (for shipping/verification).
func (l *LVMProducer) Segment() *core.Segment { return l.seg }

// LogSegment exposes the log segment the shared writes land in, so a
// replication layer (internal/logship) can ship its records.
func (l *LVMProducer) LogSegment() *core.Segment { return l.ls }

// WriteCycles reports cycles spent in Write.
func (l *LVMProducer) WriteCycles() uint64 { return l.writeCycles }

// Write is just a logged store — the hardware enumerates the update.
func (l *LVMProducer) Write(off uint32, val uint32) {
	start := l.p.Now()
	l.p.Store32(l.base+off, val)
	l.writeCycles += l.p.Now() - start
}

// Release synchronizes with the log and emits one entry per record since
// the last release. The producer reads its own log, so the records are
// in-domain and the current-word widening below is correct (entries are
// applied as whole messages, never partially).
func (l *LVMProducer) Release() (UpdateMsg, ReleaseStats) {
	start := l.p.Now()
	l.reader.Sync()
	var msg UpdateMsg
	ws := logcursor.WalkLog(&l.buf, l.reader, l.seg, func(rec logcursor.Rec) {
		l.p.Compute(RecordCycles)
		w := rec.Off &^ 3
		msg.Entries = append(msg.Entries, Entry{
			Off: w,
			Val: mergeWord(l.seg.Read32(w), rec.Off, rec.Value, rec.Size),
		})
	}, func() {
		// Records from other segments sharing this log cost only the
		// skip, not a full entry build.
		l.p.Compute(SkipCycles)
	})
	if ws.Quarantined() {
		// Only a simulator bug can damage the producer's own log.
		panic(fmt.Sprintf("dsm: log record %d (offset %d, size %d) is not a write into the shared segment",
			ws.Bad.Idx, ws.Bad.Off, ws.Bad.Size))
	}
	msg.Bytes = MsgHeaderBytes + len(msg.Entries)*EntryBytes
	st := ReleaseStats{Cycles: l.p.Now() - start, Bytes: msg.Bytes, Entries: len(msg.Entries)}
	return msg, st
}

// mergeWord widens a write to its containing word by overlaying the
// value bytes onto prev, the word's contents *before* this write. For a
// consumer, prev is the replica's current word, so applying a backlog
// reconstructs each point-in-time value instead of reading the producer
// segment's current word — which would transiently install values from
// writes that come later in the log.
func mergeWord(prev uint32, off, val uint32, size uint16) uint32 {
	var mask uint32
	switch size {
	case 1:
		mask = 0xFF
	case 2:
		mask = 0xFFFF
	default:
		return val
	}
	shift := (off & 3) * 8
	return prev&^(mask<<shift) | (val&mask)<<shift
}

// Consumer holds a replicated copy and applies update messages.
type Consumer struct {
	sys  *core.System
	p    *core.Process
	seg  *core.Segment
	base core.Addr

	ApplyCycles uint64
	BytesRecv   uint64
}

// NewConsumer maps a replica segment of the given size.
func NewConsumer(sys *core.System, p *core.Process, size uint32) (*Consumer, error) {
	seg := core.NewNamedSegment(sys, "dsm-replica", size, nil)
	reg := core.NewStdRegion(sys, seg)
	base, err := reg.Bind(p.AS, 0)
	if err != nil {
		return nil, err
	}
	return &Consumer{sys: sys, p: p, seg: seg, base: base}, nil
}

// Apply installs an update message into the replica.
func (c *Consumer) Apply(msg UpdateMsg) {
	start := c.p.Now()
	for _, e := range msg.Entries {
		c.p.Compute(ApplyWordCycles)
		c.seg.Write32(e.Off, e.Val)
	}
	c.ApplyCycles += c.p.Now() - start
	c.BytesRecv += uint64(msg.Bytes)
}

// ApplyRecord applies one shipped log record to the replica: the write's
// value bytes land at their segment offset, so sub-word writes merge into
// the replica's prior contents exactly as the original store did. This is
// the apply path of the logship replication layer; validation (size,
// alignment, bounds) is the caller's job (logcursor.ValidWrite).
func (c *Consumer) ApplyRecord(off uint32, val uint32, size uint16) {
	start := c.p.Now()
	c.p.Compute(ApplyWordCycles)
	var b [4]byte
	n := int(size)
	if n > 4 {
		n = 4
	}
	for i := 0; i < n; i++ {
		b[i] = byte(val >> (8 * i))
	}
	c.seg.RawWrite(off, b[:n])
	c.ApplyCycles += c.p.Now() - start
}

// ApplyImage installs a chunk of a producer segment image at the given
// offset — the snapshot catch-up path of the logship layer, used when a
// replica's cursor predates the producer's log compaction cut and the
// records it is missing no longer exist. The chunk lands raw; cost is
// charged per word like Apply.
func (c *Consumer) ApplyImage(off uint32, b []byte) {
	start := c.p.Now()
	c.p.Compute(uint64(len(b)/4+1) * ApplyWordCycles)
	c.seg.RawWrite(off, b)
	c.ApplyCycles += c.p.Now() - start
	c.BytesRecv += uint64(len(b))
}

// Word reads one replica word (raw).
func (c *Consumer) Word(off uint32) uint32 { return c.seg.Read32(off) }

// ReadInto copies replica bytes starting at off into b — the image dump
// a failover uses to re-seed a new primary from a surviving replica.
func (c *Consumer) ReadInto(off uint32, b []byte) { c.seg.ReadInto(off, b) }

// Verify checks that the replica matches the producer's segment over
// [0, size).
func Verify(prodSeg *core.Segment, c *Consumer, size uint32) error {
	for off := uint32(0); off < size; off += 4 {
		if got, want := c.Word(off), prodSeg.Read32(off); got != want {
			return fmt.Errorf("dsm: replica differs at %#x: %#x != %#x", off, got, want)
		}
	}
	return nil
}

// SegmentOf exposes a producer's shared segment for verification.
func SegmentOf(p Producer) *core.Segment {
	switch v := p.(type) {
	case *MuninProducer:
		return v.seg
	case *LVMProducer:
		return v.seg
	}
	return nil
}
