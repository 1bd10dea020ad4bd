package wire

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/logrec"
)

// Replication payloads (internal/logship). Sequence numbers are logical
// log-record indices: physical log offset / 16 plus the shipper's
// compaction base, so they stay monotonic across log compactions and an
// ack doubles as a catch-up cursor. The epoch is the log generation.

// Hello is the replica's handshake: where it left off, and what kind of
// consumer it is.
type Hello struct {
	LastSeq uint64
	Epoch   uint32
	SegSize uint32
	Flags   byte
}

func (h *Hello) fields(c codec) codec {
	c.u64(&h.LastSeq)
	c.u32(&h.Epoch)
	c.u32(&h.SegSize)
	c.u8(&h.Flags)
	return c
}

// HelloObserver marks the consumer as a promotion-capable lease
// observer: it feeds heartbeats to a lease.Monitor and acknowledges each
// one, so the shipper counts its admission (and its beat-acks) as lease
// delivery evidence.
const HelloObserver = byte(1 << 0)

// Welcome is the shipper's handshake reply: where shipping will resume.
type Welcome struct {
	StartSeq uint64
	Epoch    uint32
	SegSize  uint32
}

func (w *Welcome) fields(c codec) codec {
	c.u64(&w.StartSeq)
	c.u32(&w.Epoch)
	c.u32(&w.SegSize)
	return c
}

// Batch is a run of raw 16-byte records. BaseSeq is the first log index
// the batch's scan covered and EndSeq the index after the last; Count may
// be smaller than EndSeq-BaseSeq when scanned records belonged to other
// segments sharing the log (they ship as nothing but still advance the
// cursor), and may be zero for a pure cursor advance.
type Batch struct {
	BaseSeq uint64
	EndSeq  uint64
	Count   uint32
	Records []byte
}

func (b *Batch) fields(c codec) codec {
	c.u64(&b.BaseSeq)
	c.u64(&b.EndSeq)
	c.u32(&b.Count)
	c.rest(&b.Records)
	return c
}

func (b *Batch) check() error {
	if uint64(len(b.Records)) != uint64(b.Count)*logrec.Size {
		return fmt.Errorf("%w: batch count %d != %d record bytes", ErrCorrupt, b.Count, len(b.Records))
	}
	if b.EndSeq < b.BaseSeq || b.EndSeq-b.BaseSeq < uint64(b.Count) {
		return fmt.Errorf("%w: batch seq range [%d,%d) holds %d records", ErrCorrupt, b.BaseSeq, b.EndSeq, b.Count)
	}
	return nil
}

// Ack acknowledges every record below Seq.
type Ack struct{ Seq uint64 }

func (a *Ack) fields(c codec) codec { c.u64(&a.Seq); return c }

// Snapshot is one chunk of a catch-up segment image. CoverSeq is the
// logical sequence the full image covers (the replica's cursor after the
// final chunk); Off is the chunk's byte offset within the segment.
type Snapshot struct {
	CoverSeq uint64
	SegSize  uint32
	Off      uint32
	Data     []byte
}

func (s *Snapshot) fields(c codec) codec {
	c.u64(&s.CoverSeq)
	c.u32(&s.SegSize)
	c.u32(&s.Off)
	c.rest(&s.Data)
	return c
}

func (s *Snapshot) check() error {
	end := uint64(s.Off) + uint64(len(s.Data))
	if len(s.Data) == 0 || end > uint64(s.SegSize) {
		return fmt.Errorf("%w: snapshot chunk [%d,%d) of the %d-byte segment", ErrCorrupt, s.Off, end, s.SegSize)
	}
	return nil
}

// Beat is one serving-lease heartbeat (internal/lease): the primary
// asserting it still holds the lease for Epoch, renewal number Seq, to be
// re-armed for TTL clock ticks from receipt. TTL is in the lease clock's
// units (nanoseconds for wall-clocked daemons); sender and receiver
// clocks need comparable rates, never synchronized values — each side
// arms its own deadline from its own clock.
type Beat struct {
	Kind  byte // BeatGrant or BeatRenew
	Epoch uint32
	Seq   uint64
	TTL   uint64
}

func (b *Beat) fields(c codec) codec {
	c.u8(&b.Kind)
	c.pad(3)
	c.u32(&b.Epoch)
	c.u64(&b.Seq)
	c.u64(&b.TTL)
	return c
}

func (b *Beat) check() error {
	if b.Kind != BeatGrant && b.Kind != BeatRenew {
		return fmt.Errorf("%w: lease kind %d", ErrCorrupt, b.Kind)
	}
	return nil
}

// Beat kinds: the first heartbeat of a grant announces it, the rest
// renew it. Observers treat them identically; the kind is diagnostic.
const (
	BeatGrant = byte(1)
	BeatRenew = byte(2)
)

// BeatAck acknowledges receipt of the beat with renewal number Seq.
type BeatAck struct{ Seq uint64 }

func (a *BeatAck) fields(c codec) codec { c.u64(&a.Seq); return c }

// Serving payloads (internal/lvmd); Status bytes are lvmd's Status* codes.

// Open maps a segment on the session.
type Open struct{ SegID uint64 }

func (o *Open) fields(c codec) codec { c.u64(&o.SegID); return c }

// OpenResp tells the client where its segment landed.
type OpenResp struct {
	SegID     uint64
	SlotOff   uint32 // arena byte offset of the slot (subscribers use it)
	SlotSize  uint32
	ArenaSize uint32
	Status    byte
	Shard     byte
}

func (r *OpenResp) fields(c codec) codec {
	c.u64(&r.SegID)
	c.u32(&r.SlotOff)
	c.u32(&r.SlotSize)
	c.u32(&r.ArenaSize)
	c.u8(&r.Status)
	c.u8(&r.Shard)
	c.pad(2)
	return c
}

// Commit is one whole transaction on SegID: Writes holds its word
// writes as WriteSize-byte (off u32, val u32) pairs, applied in order
// behind the marker protocol.
type Commit struct {
	SegID     uint64
	ClientSeq uint64
	Writes    []byte
}

// WriteSize is the bytes of one (off, val) pair in Commit.Writes.
const WriteSize = 8

func (m *Commit) fields(c codec) codec {
	c.u64(&m.SegID)
	c.u64(&m.ClientSeq)
	c.rest(&m.Writes)
	return c
}

func (m *Commit) check() error {
	if len(m.Writes)%WriteSize != 0 {
		return fmt.Errorf("%w: commit writes tail of %d bytes", ErrCorrupt, len(m.Writes))
	}
	return nil
}

// AppendWrite appends one (off, val) pair in Commit.Writes layout.
func AppendWrite(b []byte, off, val uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, off)
	return binary.LittleEndian.AppendUint32(b, val)
}

// Write returns the i-th (off, val) pair of m.Writes.
func (m *Commit) Write(i int) (off, val uint32) {
	w := m.Writes[i*WriteSize:]
	return binary.LittleEndian.Uint32(w), binary.LittleEndian.Uint32(w[4:])
}

// CommitResp acknowledges a commit; ShardSeq is its marker-protocol
// transaction sequence.
type CommitResp struct {
	SegID     uint64
	ClientSeq uint64
	ShardSeq  uint32
	Status    byte
}

func (r *CommitResp) fields(c codec) codec {
	c.u64(&r.SegID)
	c.u64(&r.ClientSeq)
	c.u32(&r.ShardSeq)
	c.u8(&r.Status)
	c.pad(3)
	return c
}

// Read asks for N committed bytes at Off of SegID.
type Read struct {
	SegID uint64
	Off   uint32
	N     uint32
}

func (r *Read) fields(c codec) codec { c.u64(&r.SegID); c.u32(&r.Off); c.u32(&r.N); return c }

// ReadResp carries the bytes a Read asked for.
type ReadResp struct {
	SegID  uint64
	Off    uint32
	Status byte
	Data   []byte
}

func (r *ReadResp) fields(c codec) codec {
	c.u64(&r.SegID)
	c.u32(&r.Off)
	c.u8(&r.Status)
	c.pad(3)
	c.rest(&r.Data)
	return c
}

// Subscribe hands the connection to one shard's shipper.
type Subscribe struct{ Shard uint32 }

func (s *Subscribe) fields(c codec) codec { c.u32(&s.Shard); return c }

// Stats asks for a metrics snapshot; it has no payload.
type Stats struct{}

func (*Stats) fields(c codec) codec { return c }

// StatsResp carries the snapshot as JSON.
type StatsResp struct{ JSON []byte }

func (s *StatsResp) fields(c codec) codec { c.rest(&s.JSON); return c }

func (*Hello) Type() byte      { return TypeHello }
func (*Welcome) Type() byte    { return TypeWelcome }
func (*Batch) Type() byte      { return TypeBatch }
func (*Ack) Type() byte        { return TypeAck }
func (*Snapshot) Type() byte   { return TypeSnapshot }
func (*Beat) Type() byte       { return TypeLease }
func (*BeatAck) Type() byte    { return TypeBeatAck }
func (*Open) Type() byte       { return TypeOpen }
func (*OpenResp) Type() byte   { return TypeOpenResp }
func (*Commit) Type() byte     { return TypeCommit }
func (*CommitResp) Type() byte { return TypeCommitResp }
func (*Read) Type() byte       { return TypeRead }
func (*ReadResp) Type() byte   { return TypeReadResp }
func (*Subscribe) Type() byte  { return TypeSubscribe }
func (*Stats) Type() byte      { return TypeStats }
func (*StatsResp) Type() byte  { return TypeStatsResp }
