// Package lvmd is the multi-tenant logged-memory server: a long-running
// daemon hosting many independent logged segments across shard groups.
// Each shard is one deterministic simulated System — an arena segment
// carved into tenant slots, logged into one hardware log — owned by a
// single-writer goroutine, with one compact.Manager (checkpointed
// compaction to a file-backed device) and one logship.Shipper
// (replication subscribers) per shard. Segment IDs hash to shards;
// client transactions apply behind the recovery marker protocol, so a
// restart is a per-shard byte replay of the tail mirror over the last
// checkpoint image (RecoverImage) and an acknowledged commit is durable
// across SIGKILL.
//
// The client protocol reuses the logship CRC framing (logship.Frame*
// types). All payloads are little-endian, fixed layouts:
//
//	open       := segID(8)
//	openResp   := segID(8) slotOff(4) slotSize(4) arenaSize(4) status(1) shard(1) pad(2)
//	store      := segID(8) off(4) val(4)
//	commit     := segID(8) clientSeq(8)
//	commitResp := segID(8) clientSeq(8) shardSeq(4) status(1) pad(3)
//	read       := segID(8) off(4) n(4)
//	readResp   := segID(8) off(4) status(1) pad(3) data…
//	subscribe  := shard(4)
//	stats      := (empty)  → statsResp carries a JSON metrics snapshot
package lvmd

import (
	"fmt"
	"net"

	"lvm/internal/logship"
)

// Status codes carried by openResp/commitResp/readResp.
const (
	StatusOK       = byte(0)
	StatusNoSlot   = byte(1) // shard's slot directory is full
	StatusBad      = byte(2) // malformed or out-of-range request
	StatusDraining = byte(3) // server is shutting down
	StatusUnknown  = byte(4) // segment was never opened on this connection
	StatusMoved    = byte(5) // segment migrated (or is mid-cutover): re-resolve and retry
	StatusDemoted  = byte(6) // serving lease lost: writes refused until the host restarts as primary
)

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func get64(b []byte) uint64 {
	return uint64(get32(b)) | uint64(get32(b[4:]))<<32
}

func errSize(frame string, n int) error {
	return fmt.Errorf("%w: %s payload %d bytes", logship.ErrCorrupt, frame, n)
}

func encodeOpen(segID uint64) []byte {
	b := make([]byte, 8)
	put64(b, segID)
	return b
}

func decodeOpen(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, errSize("open", len(p))
	}
	return get64(p), nil
}

// openResp tells the client where its segment landed.
type openResp struct {
	segID     uint64
	slotOff   uint32 // arena byte offset of the slot (subscribers use it)
	slotSize  uint32
	arenaSize uint32
	status    byte
	shard     byte
}

const openRespSize = 24

func encodeOpenResp(r openResp) []byte {
	b := make([]byte, openRespSize)
	put64(b, r.segID)
	put32(b[8:], r.slotOff)
	put32(b[12:], r.slotSize)
	put32(b[16:], r.arenaSize)
	b[20] = r.status
	b[21] = r.shard
	return b
}

func decodeOpenResp(p []byte) (openResp, error) {
	if len(p) != openRespSize {
		return openResp{}, errSize("openResp", len(p))
	}
	return openResp{
		segID:     get64(p),
		slotOff:   get32(p[8:]),
		slotSize:  get32(p[12:]),
		arenaSize: get32(p[16:]),
		status:    p[20],
		shard:     p[21],
	}, nil
}

// storeReq is one buffered word write of the session's open transaction.
type storeReq struct {
	segID uint64
	off   uint32
	val   uint32
}

const storeSize = 16

func encodeStore(s storeReq) []byte {
	b := make([]byte, storeSize)
	put64(b, s.segID)
	put32(b[8:], s.off)
	put32(b[12:], s.val)
	return b
}

func decodeStore(p []byte) (storeReq, error) {
	if len(p) != storeSize {
		return storeReq{}, errSize("store", len(p))
	}
	return storeReq{segID: get64(p), off: get32(p[8:]), val: get32(p[12:])}, nil
}

type commitReq struct {
	segID     uint64
	clientSeq uint64
}

const commitSize = 16

func encodeCommit(c commitReq) []byte {
	b := make([]byte, commitSize)
	put64(b, c.segID)
	put64(b[8:], c.clientSeq)
	return b
}

func decodeCommit(p []byte) (commitReq, error) {
	if len(p) != commitSize {
		return commitReq{}, errSize("commit", len(p))
	}
	return commitReq{segID: get64(p), clientSeq: get64(p[8:])}, nil
}

type commitResp struct {
	segID     uint64
	clientSeq uint64
	shardSeq  uint32 // marker-protocol transaction sequence
	status    byte
}

const commitRespSize = 24

func encodeCommitResp(c commitResp) []byte {
	b := make([]byte, commitRespSize)
	put64(b, c.segID)
	put64(b[8:], c.clientSeq)
	put32(b[16:], c.shardSeq)
	b[20] = c.status
	return b
}

func decodeCommitResp(p []byte) (commitResp, error) {
	if len(p) != commitRespSize {
		return commitResp{}, errSize("commitResp", len(p))
	}
	return commitResp{
		segID:     get64(p),
		clientSeq: get64(p[8:]),
		shardSeq:  get32(p[16:]),
		status:    p[20],
	}, nil
}

type readReq struct {
	segID uint64
	off   uint32
	n     uint32
}

const readSize = 16

func encodeRead(r readReq) []byte {
	b := make([]byte, readSize)
	put64(b, r.segID)
	put32(b[8:], r.off)
	put32(b[12:], r.n)
	return b
}

func decodeRead(p []byte) (readReq, error) {
	if len(p) != readSize {
		return readReq{}, errSize("read", len(p))
	}
	return readReq{segID: get64(p), off: get32(p[8:]), n: get32(p[12:])}, nil
}

type readResp struct {
	segID  uint64
	off    uint32
	status byte
	data   []byte
}

const readRespHdr = 16

func encodeReadResp(r readResp) []byte {
	b := make([]byte, readRespHdr+len(r.data))
	put64(b, r.segID)
	put32(b[8:], r.off)
	b[12] = r.status
	copy(b[readRespHdr:], r.data)
	return b
}

func decodeReadResp(p []byte) (readResp, error) {
	if len(p) < readRespHdr {
		return readResp{}, errSize("readResp", len(p))
	}
	return readResp{segID: get64(p), off: get32(p[8:]), status: p[12], data: p[readRespHdr:]}, nil
}

func encodeSubscribe(shard uint32) []byte {
	b := make([]byte, 4)
	put32(b, shard)
	return b
}

// SubscribeDialer wraps a client-port dialer into a replication dialer
// for one shard: each connection opens with a subscribe frame, after
// which the server hands the socket to that shard's shipper and the
// logship handshake proceeds as usual. This is how a standby daemon
// follows a primary — one subscribed replica per shard.
func SubscribeDialer(dial logship.DialFunc, shard uint32) logship.DialFunc {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		if _, err := conn.Write(logship.EncodeFrame(logship.FrameSubscribe, encodeSubscribe(shard))); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

func decodeSubscribe(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, errSize("subscribe", len(p))
	}
	return get32(p), nil
}
