// Package wire is the one codec for everything the daemons put on a
// socket: the CRC frame, the table of frame types, and every payload
// layout of both protocols that share it — replication (internal/logship,
// types 1–7) and serving (internal/lvmd, types 16–25). The payload of a
// log batch is the paper's fixed 16-byte record (internal/logrec), so
// every log consumer reads the same bytes the hardware logger wrote.
//
// Frame (little-endian):
//
//	frame := magic(4)="LVSH" ver(1) type(1) flags(2) len(4) payload len-bytes crc32(4)
//
// Each payload is a struct whose one fields method walks its layout for
// both encoding and decoding, so a layout cannot disagree with itself;
// the method is the layout's documentation. Decoding also demands the
// exact payload length and runs the type's semantic checks (a batch's
// count against its records and sequence range, a snapshot chunk inside
// its segment, a beat's kind).
//
// Version history: 2 added the snapshot frame (catch-up across log
// compactions), 3 the lease heartbeat frame, 4 the hello observer flag
// and the beat-ack frame (lease delivery evidence). The serving types
// ride the same version. Within version 4 the commit frame grew its
// writes tail and the store frame (type 18) was retired; the version
// did not move because every mismatch already fails closed: an old
// client's first store frame is an unknown type, which ends its
// session, and a new commit sent to an old server fails that server's
// exact-length check with ErrCorrupt.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Magic is the frame preamble, "LVSH" in little-endian.
	Magic = uint32(0x4853564C)
	// Version is the wire protocol version this package speaks.
	Version = 4

	// HeaderSize and CRCSize bracket every payload.
	HeaderSize = 12
	CRCSize    = 4

	// MaxPayload bounds a frame's declared payload length so a corrupt or
	// hostile length field can never cause an unbounded allocation.
	MaxPayload = 1 << 20
)

// ErrCorrupt marks a frame that failed structural validation: bad magic,
// unsupported version, oversize length, a CRC mismatch, or a payload its
// type's layout or checks reject. Receivers treat it like crash recovery
// treats a torn log tail — quarantine and drop the connection rather than
// guess.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Frame types. Replication (logship) owns 1–7, serving (lvmd) 16–25.
const (
	TypeHello    = byte(1) // replica → shipper: where it left off
	TypeWelcome  = byte(2) // shipper → replica: where shipping resumes
	TypeBatch    = byte(3) // shipper → replica: sealed log records
	TypeAck      = byte(4) // replica → shipper: applied through seq
	TypeSnapshot = byte(5) // shipper → replica: one segment-image chunk
	TypeLease    = byte(6) // shipper → replica: serving-lease heartbeat
	TypeBeatAck  = byte(7) // replica → shipper: heartbeat observed

	TypeOpen     = byte(16) // map a segment ID to a shard slot
	TypeOpenResp = byte(17)
	// 18 is retired, never reused: it was the per-word store frame of
	// the buffered transaction that Commit now carries whole.
	TypeCommit     = byte(19) // apply one transaction's writes behind the marker protocol
	TypeCommitResp = byte(20) // durable acknowledgement
	TypeRead       = byte(21) // read committed segment bytes
	TypeReadResp   = byte(22)
	TypeSubscribe  = byte(23) // upgrade the connection to a replication consumer
	TypeStats      = byte(24) // fetch a merged metrics snapshot
	TypeStatsResp  = byte(25)
)

// table is every frame type of both protocols: its name (for errors) and
// a constructor for its payload. Types outside it decode to nothing.
var table = [...]struct {
	name string
	new  func() Msg
}{
	TypeHello:      {"hello", func() Msg { return new(Hello) }},
	TypeWelcome:    {"welcome", func() Msg { return new(Welcome) }},
	TypeBatch:      {"batch", func() Msg { return new(Batch) }},
	TypeAck:        {"ack", func() Msg { return new(Ack) }},
	TypeSnapshot:   {"snapshot", func() Msg { return new(Snapshot) }},
	TypeLease:      {"lease", func() Msg { return new(Beat) }},
	TypeBeatAck:    {"beatack", func() Msg { return new(BeatAck) }},
	TypeOpen:       {"open", func() Msg { return new(Open) }},
	TypeOpenResp:   {"openResp", func() Msg { return new(OpenResp) }},
	TypeCommit:     {"commit", func() Msg { return new(Commit) }},
	TypeCommitResp: {"commitResp", func() Msg { return new(CommitResp) }},
	TypeRead:       {"read", func() Msg { return new(Read) }},
	TypeReadResp:   {"readResp", func() Msg { return new(ReadResp) }},
	TypeSubscribe:  {"subscribe", func() Msg { return new(Subscribe) }},
	TypeStats:      {"stats", func() Msg { return new(Stats) }},
	TypeStatsResp:  {"statsResp", func() Msg { return new(StatsResp) }},
}

// Msg is one frame payload: a pointer to one of this package's payload
// structs.
type Msg interface {
	// Type is the frame type the payload travels under.
	Type() byte
	// fields walks the payload layout, in wire order, through c and
	// returns c with its cursor past the last field.
	fields(c codec) codec
}

// checker is a payload with semantic rules beyond its layout.
type checker interface{ check() error }

// Size is the length of m's payload.
func Size(m Msg) int { return m.fields(codec{}).n }

// Encode frames m: header, payload and CRC written into one buffer.
func Encode(m Msg) []byte {
	n := Size(m)
	b := make([]byte, HeaderSize+n+CRCSize)
	binary.LittleEndian.PutUint32(b, Magic)
	b[4] = Version
	b[5] = m.Type()
	binary.LittleEndian.PutUint32(b[8:], uint32(n))
	payload := b[HeaderSize : HeaderSize+n]
	m.fields(codec{b: payload})
	binary.LittleEndian.PutUint32(b[HeaderSize+n:], crc32.ChecksumIEEE(payload))
	return b
}

// ReadFrame reads one frame from r, validating magic, version, length
// bound and CRC. A short read surfaces as io.ErrUnexpectedEOF (a torn
// frame); structural damage surfaces as ErrCorrupt.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[:]); m != Magic {
		return 0, nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if hdr[4] != Version {
		return 0, nil, fmt.Errorf("%w: version %d (want %d)", ErrCorrupt, hdr[4], Version)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, n, MaxPayload)
	}
	buf := make([]byte, n+CRCSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	payload = buf[:n]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[n:]); got != want {
		return 0, nil, fmt.Errorf("%w: crc %#x != %#x", ErrCorrupt, got, want)
	}
	return hdr[5], payload, nil
}

// Decode parses the payload of a frame of type typ: the exact layout,
// then the type's semantic checks. Variable-length tails alias payload.
// A type outside the table decodes to (nil, nil) — callers skip or refuse
// it as their protocol demands.
func Decode(typ byte, payload []byte) (Msg, error) {
	if int(typ) >= len(table) || table[typ].new == nil {
		return nil, nil
	}
	m := table[typ].new()
	if c := m.fields(codec{b: payload, dec: true}); c.n != len(payload) {
		return nil, fmt.Errorf("%w: %s payload %d bytes", ErrCorrupt, table[typ].name, len(payload))
	}
	if v, ok := m.(checker); ok {
		if err := v.check(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ReadMsg reads one frame and decodes it; a type outside the table is nil.
func ReadMsg(r io.Reader) (Msg, error) {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return Decode(typ, payload)
}

// codec walks one payload layout. It sizes (b nil), encodes into b, or
// decodes from b (dec); n is the cursor. A decode that runs past the end
// leaves n beyond len(b), which Decode reports as a length mismatch.
type codec struct {
	b   []byte
	n   int
	dec bool
}

// next claims the next k bytes: nil while sizing or past the end.
func (c *codec) next(k int) []byte {
	at := c.n
	c.n += k
	if c.n > len(c.b) {
		return nil
	}
	return c.b[at:c.n]
}

func (c *codec) u8(v *byte) {
	if b := c.next(1); b != nil && c.dec {
		*v = b[0]
	} else if b != nil {
		b[0] = *v
	}
}

func (c *codec) u32(v *uint32) {
	if b := c.next(4); b != nil && c.dec {
		*v = binary.LittleEndian.Uint32(b)
	} else if b != nil {
		binary.LittleEndian.PutUint32(b, *v)
	}
}

func (c *codec) u64(v *uint64) {
	if b := c.next(8); b != nil && c.dec {
		*v = binary.LittleEndian.Uint64(b)
	} else if b != nil {
		binary.LittleEndian.PutUint64(b, *v)
	}
}

// pad skips k reserved bytes: written as zero (the frame buffer starts
// zeroed), ignored on decode.
func (c *codec) pad(k int) { c.next(k) }

// rest is the variable-length tail: everything after the fixed fields.
func (c *codec) rest(v *[]byte) {
	if !c.dec {
		copy(c.next(len(*v)), *v)
		return
	}
	if c.n <= len(c.b) {
		*v = c.b[c.n:]
		c.n = len(c.b)
	}
}
