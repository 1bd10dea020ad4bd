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
// The client protocol shares the replication CRC framing; its frame
// types (16–25) and payload layouts live in internal/wire. A session
// opens segments and commits transactions, each one frame carrying all
// of its writes; reads return committed bytes; a subscribe frame hands
// the connection to one shard's shipper; stats returns a JSON metrics
// snapshot.
package lvmd

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/metrics"
	"lvm/internal/recovery"
	"lvm/internal/wire"
)

// Status codes carried by OpenResp/CommitResp/ReadResp.
const (
	StatusOK       = byte(0)
	StatusNoSlot   = byte(1) // shard's slot directory is full
	StatusBad      = byte(2) // malformed or out-of-range request
	StatusDraining = byte(3) // server is shutting down
	StatusUnknown  = byte(4) // segment was never opened on this connection
	// 5 is retired, never reused: an older client reads it as "re-resolve
	// the segment's shard and retry".
	StatusDemoted = byte(6) // serving lease lost: writes refused until the host restarts as primary
)

// ServerConfig tunes the daemon.
type ServerConfig struct {
	// Dir is the data directory: shard-N.ckpt and shard-N.tail per shard.
	Dir string
	// Shards is the shard-group count (default 8); Shard the per-shard
	// template (its Core.Disk/Tail are filled per shard from Dir).
	Shards int
	Shard  ShardConfig
	// Policy is the slow-client policy for the shard op queue and each
	// session's outbound queue: PolicyStall waits StallTimeout then kills
	// the connection, PolicyDrop kills immediately.
	Policy       logship.Policy
	StallTimeout time.Duration
	// MaxTxnStores bounds the writes one commit frame may carry
	// (default 1024); WriteQueue the outbound frames queued per session
	// (default 256).
	MaxTxnStores int
	WriteQueue   int
	// IdleTimeout is the per-session read deadline, refreshed before
	// every frame (default 2 minutes — generous: it exists to reap
	// half-open and abandoned clients, not to police think time). A
	// session that sends nothing for this long is disconnected and
	// counted in HostStats.IdleExpired; without it a dead peer pins a
	// goroutine and a tracked conn forever — exactly the silent-failure
	// mode lease detection exists to catch on the serving side.
	IdleTimeout time.Duration
	// Boot, when non-nil (one entry per shard), seeds each shard from a
	// promoted replica image instead of recovering from Dir's files: the
	// image becomes the shard's arena (the server takes ownership of it:
	// RestartCore), its first checkpoint makes
	// the promoted state durable in Dir, and the shard's shipper serves
	// the granted epoch so zombie-generation subscribers are fenced.
	Boot []BootShard
}

// BootShard is one shard's promoted state: a rolled-back replica image,
// the transaction sequence its marker word holds, and the fencing epoch
// the promotion granted.
type BootShard struct {
	Img   []byte
	Seq   uint32
	Epoch uint32
}

// PromoteReplica turns a shard replica tracking markers at MarkerLimit
// into the BootShard a promoted server boots from: promotion at once by
// an authority at the replica's epoch (the caller saw the primary's
// lease expire), then the marker word stamped committed.
func PromoteReplica(r *logship.Replica, cand string) (BootShard, lease.PromoteResult, error) {
	a := lease.NewAuthority(lease.Wall{}, 0, lease.Grant{Epoch: r.Epoch(), Token: 1})
	res, err := a.Promote(r, cand, 0, lease.PromoteHooks{})
	if err != nil {
		return BootShard{}, res, err
	}
	img := r.Image()
	seq := binary.LittleEndian.Uint32(img) &^ recovery.MarkerCommit
	binary.LittleEndian.PutUint32(img, seq|recovery.MarkerCommit)
	return BootShard{Img: img, Seq: seq, Epoch: res.Grant.Epoch}, res, nil
}

func (c *ServerConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	if c.MaxTxnStores <= 0 {
		c.MaxTxnStores = 1024
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
}

// HostStats are the daemon's host-side counters (the simulated machines'
// own metrics live in the drain report — they are single-writer state of
// the shard goroutines and are only read once those quiesce).
type HostStats struct {
	Accepted     uint64 `json:"accepted"`
	Sessions     int64  `json:"sessions"`
	Subscribers  uint64 `json:"subscribers"`
	KilledStall  uint64 `json:"killed_stall"`
	KilledDrop   uint64 `json:"killed_drop"`
	BadFrames    uint64 `json:"bad_frames"`
	RefusedDrain uint64 `json:"refused_drain"`
	IdleExpired  uint64 `json:"idle_expired"`
}

// Server is the lvmd daemon: an accept loop feeding per-shard
// single-writer goroutines through bounded queues.
type Server struct {
	cfg    ServerConfig
	shards []*Shard
	disks  []*FileDisk
	tails  []*TailFile
	info   []RecoverInfo

	ln       net.Listener
	mu       sync.Mutex
	sessions map[net.Conn]struct{}
	draining atomic.Bool
	acceptWG sync.WaitGroup
	sessWG   sync.WaitGroup

	accepted    atomic.Uint64
	sessionsNow atomic.Int64
	subscribers atomic.Uint64
	killedStall atomic.Uint64
	killedDrop  atomic.Uint64
	badFrames   atomic.Uint64
	refused     atomic.Uint64
	idleExpired atomic.Uint64
}

// NewServer recovers (or creates) every shard from cfg.Dir and starts
// their goroutines. It does not accept connections until Serve. Shards
// boot concurrently, one goroutine each (open files, RecoverImage,
// NewShard with its epoch sync — or, after a damaged walk, its
// checkpoint and tail reset), so restart time is the slowest shard's,
// not the sum. Results land in index-addressed slices; on failure every
// shard that did start is closed, every opened file is closed, and the
// lowest-index shard's error is returned.
func NewServer(cfg ServerConfig) (*Server, error) {
	s, err := bootServer(cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// bootServer is NewServer, except that on a shard boot failure it also
// hands back the torn-down server so a test can see that nothing of it
// is still running.
func bootServer(cfg ServerConfig) (*Server, error) {
	cfg.fill()
	if err := cfg.Shard.Core.fill(); err != nil {
		return nil, err
	}
	n := cfg.Shards
	s := &Server{
		cfg:      cfg,
		shards:   make([]*Shard, n),
		disks:    make([]*FileDisk, n),
		tails:    make([]*TailFile, n),
		info:     make([]RecoverInfo, n),
		sessions: make(map[net.Conn]struct{}),
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lvmd: data dir: %w", err)
	}
	if cfg.Boot != nil && len(cfg.Boot) != n {
		return nil, fmt.Errorf("lvmd: %d boot images for %d shards", len(cfg.Boot), n)
	}
	// Shard n's files mean the directory was written with more shards:
	// booting without them would silently drop their tenants. Files this
	// boot creates are noted so a failed boot can remove them again and
	// leave no stray shard behind for the next boot to trip over.
	var created []string
	for i := 0; i <= n; i++ {
		for _, name := range shardFileNames(i) {
			path := filepath.Join(cfg.Dir, name)
			_, err := os.Stat(path)
			switch {
			case i == n && err == nil:
				return nil, fmt.Errorf("lvmd: %s holds %s, so it was written with more than %d shards", cfg.Dir, name, n)
			case i < n && errors.Is(err, fs.ErrNotExist):
				created = append(created, path)
			}
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.bootShard(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, sh := range s.shards {
				if sh != nil {
					sh.Close()
				}
			}
			s.closeFiles()
			for _, path := range created {
				_ = os.Remove(path) // best effort: the boot error is the one to report
			}
			return s, err
		}
	}
	return s, nil
}

// bootShard opens shard i's files, recovers (or adopts the promoted
// boot image) and starts the shard, filling slot i of the server's
// per-shard slices. It touches no other slot, so boots run concurrently.
func (s *Server) bootShard(i int) error {
	disk, tail, err := OpenShardFiles(s.cfg.Dir, i)
	if err != nil {
		return err
	}
	s.disks[i], s.tails[i] = disk, tail
	shCfg := s.cfg.Shard
	shCfg.Core.Disk, shCfg.Core.Tail = disk, tail
	var img []byte
	var info RecoverInfo
	if s.cfg.Boot != nil {
		img, info = s.cfg.Boot[i].Img, RecoverInfo{Seq: s.cfg.Boot[i].Seq}
		// The grant flows through the core so the promoted image's
		// checkpoint and tail reset persist it: a later restart of this
		// daemon (no Boot) then elects past it instead of falling back to
		// the checkpoint generation and fencing itself out.
		shCfg.Core.Epoch = s.cfg.Boot[i].Epoch
	} else {
		img, info, err = RecoverImage(shCfg.Core, tail)
		if err != nil {
			return fmt.Errorf("lvmd: shard %d recovery: %w", i, err)
		}
	}
	if err := s.checkHomes(i, img); err != nil {
		return err
	}
	sh, err := NewShard(i, shCfg, img, info)
	if err != nil {
		return fmt.Errorf("lvmd: shard %d: %w", i, err)
	}
	s.shards[i], s.info[i] = sh, info
	return nil
}

// checkHomes refuses shard i's recovered image if its directory holds a
// tenant whose hash home is another shard — what a directory written at
// a different shard count looks like. Served anyway, that tenant's data
// would be unreachable and an Open on its home would allocate a fresh,
// empty segment. Runs before the shard's goroutine starts.
func (s *Server) checkHomes(i int, img []byte) error {
	if img == nil {
		return nil
	}
	ids, err := readDirectory(img, s.cfg.Shard.Core.Slots)
	if err != nil {
		return fmt.Errorf("lvmd: shard %d: %w", i, err)
	}
	for _, id := range ids {
		if h := homeShard(id, len(s.shards)); h != i {
			return fmt.Errorf("lvmd: segment %d is on shard %d but hashes to shard %d of %d: the directory was written with a different shard count",
				id, i, h, len(s.shards))
		}
	}
	return nil
}

// shardFileNames names shard i's checkpoint and tail files.
func shardFileNames(i int) [2]string {
	return [2]string{fmt.Sprintf("shard-%d.ckpt", i), fmt.Sprintf("shard-%d.tail", i)}
}

// OpenShardFiles opens shard i's checkpoint disk and tail mirror in dir,
// closing the disk again if the tail does not open.
func OpenShardFiles(dir string, i int) (*FileDisk, *TailFile, error) {
	names := shardFileNames(i)
	disk, err := OpenFileDisk(filepath.Join(dir, names[0]))
	if err != nil {
		return nil, nil, err
	}
	tail, err := OpenTail(filepath.Join(dir, names[1]))
	if err != nil {
		disk.Close()
		return nil, nil, err
	}
	return disk, tail, nil
}

// closeFiles closes every shard file that was opened (a failed boot
// leaves nil slots).
func (s *Server) closeFiles() {
	for _, d := range s.disks {
		if d != nil {
			d.Close()
		}
	}
	for _, t := range s.tails {
		if t != nil {
			t.Close()
		}
	}
}

// RecoverInfos reports what each shard's boot recovery did.
func (s *Server) RecoverInfos() []RecoverInfo { return s.info }

// homeShard is a segment ID's hash home among `shards` shards (splitmix
// finalizer — the same hash everywhere, or restarts would scatter
// tenants).
func homeShard(segID uint64, shards int) int {
	h := segID
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % uint64(shards))
}

// route resolves a segment ID to the one shard that serves it, its
// hash home.
func (s *Server) route(segID uint64) *Shard { return s.shards[homeShard(segID, len(s.shards))] }

// Serve accepts client connections until the listener closes (Drain).
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: drain
			}
			if s.draining.Load() {
				conn.Close()
				continue
			}
			s.accepted.Add(1)
			s.track(conn, true)
			s.sessWG.Add(1)
			go s.session(conn)
		}
	}()
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.sessions[conn] = struct{}{}
		s.sessionsNow.Add(1)
	} else if _, ok := s.sessions[conn]; ok {
		delete(s.sessions, conn)
		s.sessionsNow.Add(-1)
	}
	s.mu.Unlock()
}

// untrack removes a connection without closing it (subscriber handoff).
func (s *Server) untrack(conn net.Conn) { s.track(conn, false) }

// session owns one client connection: a reader loop decoding frames and
// a writer goroutine draining the response queue. Responses are enqueued
// by shard goroutines via the reply closure; a queue that stays full
// past the policy's patience kills the connection — backpressure reaches
// the client as disconnection, never as an unbounded buffer.
func (s *Server) session(conn net.Conn) {
	defer s.sessWG.Done()
	defer s.track(conn, false)

	// The first frame decides the connection's role, and is read
	// unbuffered: a subscriber handoff must leave the shipper's bytes
	// (the logship hello that follows) unread on the socket. Every read
	// sits behind the idle deadline so a half-open or silent client is
	// reaped instead of pinning this goroutine forever.
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //errgate:ok — a conn that can't set deadlines fails the read instead
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		s.noteIdle(err)
		conn.Close()
		return
	}
	if typ == wire.TypeSubscribe {
		m, err := wire.Decode(typ, payload)
		sub, _ := m.(*wire.Subscribe)
		if err != nil || sub.Shard >= uint32(len(s.shards)) || s.draining.Load() {
			s.badFrames.Add(1)
			conn.Close()
			return
		}
		// The shipper paces its own handshake deadline; the session's
		// idle policy must not leak onto the adopted conn.
		_ = conn.SetReadDeadline(time.Time{}) //errgate:ok — the shipper re-arms its own deadline
		s.subscribers.Add(1)
		s.untrack(conn) // the shipper owns (and will close) it now
		s.shards[sub.Shard].Adopt(conn)
		return
	}

	// sessDone, not a channel close, ends the writer and neutralizes the
	// reply closures: shard goroutines may still hold replies for ops
	// this session queued, and a send racing a close would panic. After
	// sessDone every send returns immediately — a shard can never block
	// on a dead session beyond its policy patience.
	out := make(chan []byte, s.cfg.WriteQueue)
	sessDone := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case frame := <-out:
				if _, err := conn.Write(frame); err != nil {
					conn.Close() // unblocks the reader loop too
					return
				}
			case <-sessDone:
				return
			}
		}
	}()
	// send runs on the shard goroutine for every reply, so the stall
	// timer is armed only once the queue is found full.
	send := func(frame []byte) {
		select {
		case out <- frame:
			return
		case <-sessDone:
			return
		default:
			if s.cfg.Policy == logship.PolicyDrop {
				s.killedDrop.Add(1)
				conn.Close()
				return
			}
		}
		t := time.NewTimer(s.cfg.StallTimeout)
		defer t.Stop()
		select {
		case out <- frame:
		case <-sessDone:
		case <-writerDone:
		case <-t.C:
			s.killedStall.Add(1)
			conn.Close()
		}
	}

	r := bufio.NewReader(conn)
	for {
		if err := s.handleFrame(conn, typ, payload, send); err != nil {
			break
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //errgate:ok — a conn that can't set deadlines fails the read instead
		typ, payload, err = wire.ReadFrame(r)
		if err != nil {
			s.noteIdle(err)
			break
		}
	}
	conn.Close()
	close(sessDone)
	<-writerDone
}

// noteIdle counts a session read that died on the idle deadline.
func (s *Server) noteIdle(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.idleExpired.Add(1)
	}
}

// stall returns the submit patience for the configured policy.
func (s *Server) stall() time.Duration {
	if s.cfg.Policy == logship.PolicyDrop {
		return 0
	}
	return s.cfg.StallTimeout
}

func (s *Server) handleFrame(conn net.Conn, typ byte, payload []byte, send func([]byte)) error {
	m, err := wire.Decode(typ, payload)
	if err != nil {
		s.badFrames.Add(1)
		return err
	}
	draining := s.draining.Load()
	switch m := m.(type) {
	case *wire.Open:
		if draining {
			s.refused.Add(1)
			send(wire.Encode(&wire.OpenResp{SegID: m.SegID, Status: StatusDraining}))
			return nil
		}
		sh := s.route(m.SegID)
		if !sh.submit(shardOp{kind: opOpen, segID: m.SegID, t0: time.Now(), reply: send}, s.stall()) {
			return s.overloaded(conn)
		}
	case *wire.Commit:
		n := len(m.Writes) / wire.WriteSize
		if n > s.cfg.MaxTxnStores {
			s.badFrames.Add(1)
			return fmt.Errorf("lvmd: transaction of %d stores exceeds %d", n, s.cfg.MaxTxnStores)
		}
		if draining {
			s.refused.Add(1)
			send(wire.Encode(&wire.CommitResp{SegID: m.SegID, ClientSeq: m.ClientSeq, Status: StatusDraining}))
			return nil
		}
		writes := make([]Write, n)
		for i := range writes {
			writes[i].Off, writes[i].Val = m.Write(i)
		}
		sh := s.route(m.SegID)
		if !sh.submit(shardOp{kind: opCommit, segID: m.SegID, writes: writes,
			clientSeq: m.ClientSeq, t0: time.Now(), reply: send}, s.stall()) {
			return s.overloaded(conn)
		}
	case *wire.Read:
		sh := s.route(m.SegID)
		if !sh.submit(shardOp{kind: opRead, segID: m.SegID, off: m.Off, n: m.N,
			t0: time.Now(), reply: send}, s.stall()) {
			return s.overloaded(conn)
		}
	case *wire.Stats:
		b, err := json.Marshal(s.Stats())
		if err != nil {
			return err
		}
		send(wire.Encode(&wire.StatsResp{JSON: b}))
	default:
		s.badFrames.Add(1)
		return fmt.Errorf("lvmd: unexpected frame type %d", typ)
	}
	return nil
}

// overloaded records a submit that exhausted the policy's patience and
// kills the connection: under PolicyStall this only happens after a full
// StallTimeout of a saturated shard queue, under PolicyDrop immediately.
func (s *Server) overloaded(conn net.Conn) error {
	if s.cfg.Policy == logship.PolicyDrop {
		s.killedDrop.Add(1)
	} else {
		s.killedStall.Add(1)
	}
	conn.Close()
	return fmt.Errorf("lvmd: shard queue full")
}

// Stats snapshots the host-side counters.
func (s *Server) Stats() HostStats {
	return HostStats{
		Accepted:     s.accepted.Load(),
		Sessions:     s.sessionsNow.Load(),
		Subscribers:  s.subscribers.Load(),
		KilledStall:  s.killedStall.Load(),
		KilledDrop:   s.killedDrop.Load(),
		BadFrames:    s.badFrames.Load(),
		RefusedDrain: s.refused.Load(),
		IdleExpired:  s.idleExpired.Load(),
	}
}

// ShardReport is one shard's state at drain.
type ShardReport struct {
	Digest   string            `json:"digest"`
	Seq      uint32            `json:"seq"`
	Epoch    uint32            `json:"epoch"`
	Segments int               `json:"segments"`
	Demoted  bool              `json:"demoted,omitempty"`
	Error    string            `json:"error,omitempty"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
}

// DrainReport is the manifest a clean shutdown leaves behind.
type DrainReport struct {
	Drained bool          `json:"drained"`
	Shards  []ShardReport `json:"shards"`
	Host    HostStats     `json:"host"`
}

// Drain gracefully shuts the daemon down: stop accepting, tear down
// client sessions, then drain every shard — each fences its queue
// remainder, closes its shipper, and commits a final checkpoint behind
// the marker protocol. The report carries per-shard digests so a restart
// can prove byte-identical recovery.
func (s *Server) Drain() DrainReport {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()
	s.mu.Lock()
	for conn := range s.sessions {
		conn.Close()
	}
	s.mu.Unlock()
	s.sessWG.Wait()

	rep := DrainReport{Drained: true}
	for _, sh := range s.shards {
		sh.Close()
		d := sh.Digest()
		sr := ShardReport{
			Digest:   hex.EncodeToString(d[:]),
			Seq:      sh.Core.Seq(),
			Epoch:    sh.Core.Mgr.Epoch(),
			Segments: sh.Core.Segments(),
			Demoted:  sh.Demoted(),
		}
		// The shard goroutine is gone: its simulation metrics are safe to
		// read now.
		if snap := sh.Core.Sys.MetricsSnapshot(); snap != nil {
			sr.Metrics = snap
		}
		if err := sh.Err(); err != nil {
			sr.Error = err.Error()
			rep.Drained = false
		}
		rep.Shards = append(rep.Shards, sr)
	}
	rep.Host = s.Stats()
	s.closeFiles()
	return rep
}
