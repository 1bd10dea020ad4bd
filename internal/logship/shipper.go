// Package logship ships LVM log records from a producer System to N
// replica consumers over a real transport — the first piece of the
// codebase that moves log data between independent systems instead of
// simulating consistency inside one address space (Section 2.6's
// log-based distributed consistency, scaled out).
//
// The design follows the paper's observation that the hardware log is
// already the enumerated update set: the producer's write path is
// untouched (logged stores stay zero-allocation), and a shipping layer
// drains the log into framed batches of 16-byte records on the producer's
// thread, bounded per consumer by an in-flight window. Replicas apply
// records through the existing dsm.Consumer machinery, validate each one
// with the crash-recovery rules (logcursor.ValidWrite), quarantine on
// torn or corrupt frames, and resume from their last acknowledged
// sequence number after a crash or disconnect — the same
// degrade-don't-panic posture as internal/recovery.Replay.
//
// Frames and payload layouts (types 1–7) live in internal/wire. A
// replica opens with a hello (last acked sequence, epoch), the shipper
// answers with a welcome (where shipping resumes), then batches flow down
// and acks flow up. A stale-epoch hello forces a full resync; a cursor
// below the compaction cut is caught up with snapshot chunks of the
// current segment image, acked only when the final chunk lands. Lease
// frames carry the serving-lease heartbeat (internal/lease) in-stream
// with the data whose authority it asserts; an observer (hello flag)
// answers each with a beat-ack, which feeds LeaseEvidence. Record
// addresses are rewritten to segment offsets before shipping.
package logship

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/wire"
)

// Policy says what the shipper does when a consumer's in-flight window is
// full at enqueue time.
type Policy int

const (
	// PolicyStall waits up to StallTimeout for the window to drain, then
	// drops the consumer. Release latency absorbs the wait; memory stays
	// bounded either way.
	PolicyStall Policy = iota
	// PolicyDrop disconnects the slow consumer immediately. It can
	// rejoin later and catch up from its last acked sequence.
	PolicyDrop
)

// Config tunes a Shipper.
type Config struct {
	// FlushRecords is the batch seal threshold in records (default 64).
	FlushRecords int
	// Window bounds the batches queued per consumer (default 8). With
	// FlushRecords it caps shipping memory per consumer at roughly
	// Window × FlushRecords × 16 bytes — a slow consumer can never grow
	// an unbounded backlog in the producer.
	Window int
	// OnFull is the slow-consumer policy (default PolicyStall).
	OnFull Policy
	// StallTimeout bounds one PolicyStall wait (default 5s).
	StallTimeout time.Duration
	// HandshakeTimeout bounds the hello/welcome exchange (default 5s).
	HandshakeTimeout time.Duration
	// Epoch seeds the log generation (default 1). A shipper re-seeded
	// from a promoted replica image starts at the grant's epoch so the
	// zombie ex-primary's generation is strictly behind it.
	Epoch uint32
	// StartSeq seeds the logical cursor over an empty log: sealed, seq,
	// and base all start there, so a consumer resuming below it (or fresh
	// at zero) is caught up by snapshot — exactly the semantics of a
	// promotion at the acked watermark.
	StartSeq uint64
}

func (c *Config) fill() {
	if c.FlushRecords <= 0 {
		c.FlushRecords = 64
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
}

// shipConn is one consumer connection as the shipper sees it.
type shipConn struct {
	c        net.Conn
	ch       chan []byte   // sealed frames awaiting the writer; cap = Window
	start    uint64        // sequence shipping resumed from (catch-up cursor)
	acked    atomic.Uint64 // highest sequence the consumer acknowledged
	observer bool          // hello carried the lease-observer flag
	dead     atomic.Bool
	stop     chan struct{}
	once     sync.Once
}

func (c *shipConn) kill() {
	c.once.Do(func() {
		c.dead.Store(true)
		close(c.stop)
		c.c.Close()
	})
}

// Shipper streams a logged segment's records to every connected replica.
//
// Threading: the accept loop and per-connection writer/ack goroutines are
// host-side and touch only the network and atomics. Everything that reads
// the simulated machine — Flush, FlushAll, ReleaseShip, Compacted, Close —
// must be called from the producer's (simulation) thread, because log
// readers walk kernel state that the machine mutates on every store.
type Shipper struct {
	sys  *core.System
	data *core.Segment
	ls   *core.Segment
	cfg  Config
	ln   net.Listener

	reader *core.LogReader

	// Pump-thread state.
	conns      []*shipConn
	batch      []byte // raw re-encoded records of the open batch
	batchCount int
	sealedSeq  uint64 // log index everything up to which has been sealed
	obsSeen    bool   // a lease observer was admitted at least once (sticky)

	// beatAck is the highest beat sequence any observer acknowledged;
	// written by connAcks goroutines, read by LeaseEvidence.
	beatAck atomic.Uint64

	// Shared with handshake goroutines.
	epoch  atomic.Uint32
	seq    atomic.Uint64 // logical index of the next unscanned record
	base   atomic.Uint64 // logical index of physical log byte 0 (compaction cut)
	joinCh chan *shipConn
	ack    chan struct{} // pinged on every ack, cap 1

	// all tracks every connection with live goroutines so Close can
	// unblock them; guarded by mu, which also serializes registration
	// against closing.
	mu  sync.Mutex
	all map[*shipConn]struct{}

	// Stats surface in the producer System's MetricsSnapshot as
	// logship.* counters.
	Stats ShipStats

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewShipper starts shipping the records that data's writes append to
// log segment ls, serving replicas that connect via ln. It registers its
// counters with sys's metrics registry and begins accepting immediately;
// records flow on the next Flush.
func NewShipper(sys *core.System, data, ls *core.Segment, ln net.Listener, cfg Config) *Shipper {
	cfg.fill()
	s := &Shipper{
		sys:    sys,
		data:   data,
		ls:     ls,
		cfg:    cfg,
		ln:     ln,
		reader: core.NewLogReader(sys, ls),
		joinCh: make(chan *shipConn, 64),
		ack:    make(chan struct{}, 1),
		all:    make(map[*shipConn]struct{}),
		closed: make(chan struct{}),
	}
	s.epoch.Store(cfg.Epoch)
	if cfg.StartSeq > 0 {
		s.sealedSeq = cfg.StartSeq
		s.seq.Store(cfg.StartSeq)
		s.base.Store(cfg.StartSeq)
	}
	sys.Metrics().AddCollector(s.collect)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// collect is the shipper's metrics.Collector: its counters, and
// logship.frame_base, the logical index of physical log byte 0 that a
// compaction cut moves (a restart seeds it at the manager's logical
// base, so the two frames must agree).
func (s *Shipper) collect(emit func(name string, v uint64)) {
	s.Stats.Collect(emit)
	emit("logship.frame_base", s.base.Load())
}

// Epoch reports the current log generation.
func (s *Shipper) Epoch() uint32 { return s.epoch.Load() }

// SealedSeq reports the log index up to which batches have been sealed
// and broadcast. Pump thread only.
func (s *Shipper) SealedSeq() uint64 { return s.sealedSeq }

func (s *Shipper) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handshake(c)
	}
}

// Adopt hands the shipper a connection that was accepted elsewhere (the
// lvmd daemon accepts every client on one listener and routes subscribe
// frames here). The connection runs the normal hello/welcome handshake
// and joins the broadcast set exactly as if it had arrived on the
// shipper's own listener. Safe from any goroutine; a shipper that is
// already closed just closes the connection.
func (s *Shipper) Adopt(c net.Conn) {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		c.Close()
		return
	default:
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.handshake(c)
}

// negotiateStart decides where shipping resumes for a replica that said
// hello: from its last acked sequence when the log generation matches and
// the claim is plausible, from zero (full resync) otherwise.
func negotiateStart(h wire.Hello, curEpoch uint32, curSeq uint64) uint64 {
	if h.Epoch != curEpoch || h.LastSeq > curSeq {
		return 0
	}
	return h.LastSeq
}

// handshake runs the hello/welcome exchange on a fresh connection and
// queues it for admission by the pump.
func (s *Shipper) handshake(c net.Conn) {
	defer s.wg.Done()
	deadline := time.Now().Add(s.cfg.HandshakeTimeout)
	_ = c.SetDeadline(deadline)
	m, err := wire.ReadMsg(c)
	h, ok := m.(*wire.Hello)
	if err != nil || !ok || h.SegSize != s.data.Size() {
		c.Close()
		return
	}
	if h.Epoch > s.epoch.Load() {
		// The consumer follows a later generation than ours, which means
		// a promotion happened and we are the zombie ex-primary. Refuse
		// the session: feeding it would roll the consumer back behind the
		// promoted timeline. Epochs only move forward. The refusal is
		// loud: a welcome carrying our stale epoch goes out first, so the
		// consumer classifies this as fencing (ErrFenced) rather than a
		// dead socket and stops redialing a shipper that will never feed
		// it.
		s.Stats.FencedHellos.Add(1)
		_, _ = c.Write(wire.Encode(&wire.Welcome{ //errgate:ok — refusal courtesy; the close below is the real act
			StartSeq: h.LastSeq,
			Epoch:    s.epoch.Load(),
			SegSize:  s.data.Size(),
		}))
		c.Close()
		return
	}
	start := negotiateStart(*h, s.epoch.Load(), s.seq.Load())
	sc := &shipConn{
		c:        c,
		ch:       make(chan []byte, s.cfg.Window),
		start:    start,
		observer: h.Flags&wire.HelloObserver != 0,
		stop:     make(chan struct{}),
	}
	sc.acked.Store(start)
	if !s.register(sc) {
		sc.kill()
		return
	}
	// Enqueue the join BEFORE the welcome goes out: the welcome write
	// completes only after the replica reads it (synchronous on the mem
	// transport, ordered on TCP), so by the time the replica's Connect
	// returns, the join is already visible to the pump's next Flush —
	// admission is deterministic, never a scheduling race. The writer
	// goroutine starts after the welcome, so no batch can precede it on
	// the wire even if the pump admits us first.
	select {
	case s.joinCh <- sc:
	case <-s.closed:
		sc.kill()
		return
	}
	if _, err := c.Write(wire.Encode(&wire.Welcome{
		StartSeq: start,
		Epoch:    s.epoch.Load(),
		SegSize:  s.data.Size(),
	})); err != nil {
		sc.kill()
		return
	}
	_ = c.SetDeadline(time.Time{})
	s.Stats.Joins.Add(1)
	if h.LastSeq > 0 || h.Epoch > 0 {
		s.Stats.Reconnects.Add(1)
	}
	s.wg.Add(2)
	go s.connWriter(sc)
	go s.connAcks(sc)
}

// register adds a connection to the close set; it fails once the shipper
// is closing, so no connection's goroutines can outlive Close.
func (s *Shipper) register(c *shipConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.all[c] = struct{}{}
	return true
}

// connWriter drains a consumer's frame queue onto its connection.
func (s *Shipper) connWriter(c *shipConn) {
	defer s.wg.Done()
	for {
		select {
		case b := <-c.ch:
			if _, err := c.c.Write(b); err != nil {
				c.kill()
				return
			}
		case <-c.stop:
			return
		}
	}
}

// connAcks reads acknowledgement frames and advances the consumer's
// acked cursor.
func (s *Shipper) connAcks(c *shipConn) {
	defer s.wg.Done()
	for {
		m, err := wire.ReadMsg(c.c)
		if err != nil {
			c.kill()
			s.ping()
			return
		}
		switch m := m.(type) {
		case *wire.BeatAck:
			if c.observer {
				// CAS-max: acks from concurrent observers may race.
				for {
					cur := s.beatAck.Load()
					if m.Seq <= cur || s.beatAck.CompareAndSwap(cur, m.Seq) {
						break
					}
				}
				s.Stats.BeatAcks.Add(1)
			}
		case *wire.Ack:
			if m.Seq > c.acked.Load() {
				c.acked.Store(m.Seq)
			}
			s.Stats.AcksReceived.Add(1)
			s.ping()
		}
	}
}

func (s *Shipper) ping() {
	select {
	case s.ack <- struct{}{}: //errgate:ok — ack coalescing: a pending token already wakes the waiter
	default:
	}
}

// Flush drains the producer's log into batches and broadcasts every
// sealed batch; a partial batch stays open for the next Flush. It also
// admits consumers that connected since the last pump. With no consumer
// attached and nothing open it encodes nothing: the cursor jumps to the
// log end, and a consumer that joins later is caught up from the log
// (admitJoins). Producer thread only.
func (s *Shipper) Flush() error {
	if err := s.admitJoins(); err != nil {
		return err
	}
	s.reader.Sync()
	if len(s.conns) == 0 && s.batchCount == 0 {
		end := s.reader.End() / logrec.Size * logrec.Size
		if err := s.reader.Seek(end); err != nil {
			return fmt.Errorf("logship: idle skip to log end: %w", err)
		}
		s.sealedSeq = s.base.Load() + uint64(end)/logrec.Size
		s.seq.Store(s.sealedSeq)
		return nil
	}
	s.pack(s.reader, &s.batch, &s.batchCount, s.seal)
	s.seq.Store(s.base.Load() + uint64(s.reader.Offset())/logrec.Size)
	return nil
}

// FlushAll is Flush plus a seal of the open partial batch, so everything
// logged so far is on the wire (or queued within each consumer's window).
func (s *Shipper) FlushAll() error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.seal()
	return nil
}

// seal closes the open batch and broadcasts it to every live consumer.
// An empty batch still ships if the cursor advanced (records for other
// segments sharing the log), so acks keep moving.
func (s *Shipper) seal() {
	endSeq := s.base.Load() + uint64(s.reader.Offset())/logrec.Size
	if endSeq == s.sealedSeq && s.batchCount == 0 {
		return
	}
	frame := wire.Encode(&wire.Batch{
		BaseSeq: s.sealedSeq,
		EndSeq:  endSeq,
		Count:   uint32(s.batchCount),
		Records: s.batch,
	})
	s.Stats.BatchesShipped.Add(1)
	s.Stats.RecordsShipped.Add(uint64(s.batchCount))
	for _, c := range s.conns {
		s.offer(c, frame)
	}
	s.sealedSeq = endSeq
	s.batch = s.batch[:0]
	s.batchCount = 0
}

// offer enqueues a frame within the consumer's window, applying the
// slow-consumer policy when the window is full.
func (s *Shipper) offer(c *shipConn, frame []byte) {
	if c.dead.Load() {
		return
	}
	select {
	case c.ch <- frame: //errgate:ok — full window falls through to the OnFull policy below, which counts the drop
		s.Stats.BytesShipped.Add(uint64(len(frame)))
		return
	default:
	}
	if s.cfg.OnFull == PolicyDrop {
		s.Stats.Drops.Add(1)
		c.kill()
		return
	}
	s.Stats.Stalls.Add(1)
	t := time.NewTimer(s.cfg.StallTimeout)
	defer t.Stop()
	select {
	case c.ch <- frame:
		s.Stats.BytesShipped.Add(uint64(len(frame)))
	case <-c.stop:
	case <-t.C:
		s.Stats.Drops.Add(1)
		c.kill()
	}
}

// admitJoins brings newly connected consumers live: the open batch is
// sealed first so the sealed cursor is the single truth, then each
// joiner is caught up from its negotiated start sequence by re-reading
// the log, exactly as crash recovery re-reads a surviving log.
func (s *Shipper) admitJoins() error {
	for {
		var c *shipConn
		select {
		case c = <-s.joinCh:
		default:
			s.sweepDead()
			return nil
		}
		s.seal()
		if err := s.catchUp(c); err != nil {
			c.kill()
			return err
		}
		s.conns = append(s.conns, c)
		if c.observer {
			s.obsSeen = true
		}
	}
}

// catchUp ships the tail [c.start, sealedSeq) to one consumer. A cursor
// that predates the compaction base points at records the log no longer
// holds, so those consumers get the segment image (shipSnapshot) instead
// of a record replay; everyone else is caught up by re-reading the log,
// exactly as crash recovery re-reads a surviving log.
func (s *Shipper) catchUp(c *shipConn) error {
	if c.start >= s.sealedSeq {
		return nil
	}
	logBase := s.base.Load()
	if c.start < logBase {
		s.shipSnapshot(c)
		c.start = s.sealedSeq
		return nil
	}
	r := core.NewLogReader(s.sys, s.ls)
	lo, hi, err := physRange(c.start, s.sealedSeq, logBase, s.ls.Size())
	if err != nil {
		return err
	}
	if err := r.Seek(lo); err != nil {
		return fmt.Errorf("logship: catch-up seek: %w", err)
	}
	r.SetEnd(hi)
	var records []byte
	base := c.start
	count := 0
	flush := func() {
		end := logBase + uint64(r.Offset())/logrec.Size
		frame := wire.Encode(&wire.Batch{
			BaseSeq: base,
			EndSeq:  end,
			Count:   uint32(count),
			Records: records,
		})
		s.Stats.BatchesShipped.Add(1)
		s.Stats.CatchupRecords.Add(uint64(count))
		s.offer(c, frame)
		base = end
		records = records[:0]
		count = 0
	}
	s.pack(r, &records, &count, flush)
	if count > 0 || base < s.sealedSeq {
		flush()
	}
	return nil
}

// pack appends the data records r yields, in wire form, to the open
// batch (*records, holding *count of them), and calls seal each time the
// batch reaches FlushRecords: the one batch loop of Flush and catch-up.
// Wire form addresses a record by its segment offset: replicas cannot
// resolve producer physical addresses, and offsets are what their apply
// path wants.
func (s *Shipper) pack(r *core.LogReader, records *[]byte, count *int, seal func()) {
	for {
		var n int
		*records, n = logcursor.AppendData(*records, r, s.data, s.cfg.FlushRecords-*count)
		*count += n
		if *count < s.cfg.FlushRecords {
			return
		}
		seal()
	}
}

// physRange maps the logical sequence range [start, end) onto physical
// byte offsets of the log segment, given the compaction base (the
// logical sequence of physical byte 0) and the segment size. All
// arithmetic is 64-bit: sequences grow without bound once the log is
// compacted, so narrowing before the multiply (the old
// uint32(seq)*logrec.Size) computes garbage offsets for seq >= 2^28.
// Out-of-range inputs — a cursor below the base (those records were cut)
// or beyond the log — are explicit errors, never a wrapped offset.
func physRange(start, end, base uint64, logSize uint32) (lo, hi uint32, err error) {
	if start < base {
		return 0, 0, fmt.Errorf("logship: catch-up start seq %d predates compaction base %d", start, base)
	}
	if end < start {
		return 0, 0, fmt.Errorf("logship: catch-up range [%d,%d) is inverted", start, end)
	}
	lo64 := (start - base) * logrec.Size
	hi64 := (end - base) * logrec.Size
	if hi64 > uint64(logSize) {
		return 0, 0, fmt.Errorf("logship: catch-up range [%d,%d) ends %d bytes into a %d-byte log",
			start, end, hi64, logSize)
	}
	return uint32(lo64), uint32(hi64), nil
}

// snapChunkBytes bounds one snapshot chunk, comfortably under
// wire.MaxPayload.
const snapChunkBytes = 64 * 1024

// shipSnapshot streams the producer's current segment image to one
// consumer in chunked snapshot frames. coverSeq is the sealed cursor:
// the image reflects at least every record below it (it may also carry
// newer bytes, which the records that logged them re-assert when their
// batches arrive — absolute writes replayed in order are idempotent, the
// same argument compact.Manager makes for its checkpoint images). The
// replica acks coverSeq only once the final chunk lands, so a torn
// snapshot is re-sent from scratch on reconnect.
func (s *Shipper) shipSnapshot(c *shipConn) {
	size := s.data.Size()
	cover := s.sealedSeq
	buf := make([]byte, snapChunkBytes)
	for off := uint32(0); off < size; {
		n := uint32(len(buf))
		if off+n > size {
			n = size - off
		}
		s.data.ReadInto(off, buf[:n])
		frame := wire.Encode(&wire.Snapshot{
			CoverSeq: cover,
			SegSize:  size,
			Off:      off,
			Data:     buf[:n],
		})
		s.offer(c, frame)
		off += n
	}
	s.Stats.SnapshotsShipped.Add(1)
	s.Stats.SnapshotBytes.Add(uint64(size))
}

// Heartbeat broadcasts a serving-lease beat (internal/lease) to every
// live consumer. Delivery is best effort: a full window drops the beat
// for that consumer (the next renewal covers it) rather than ever
// stalling the producer on its own liveness signal. The holder's safety
// comes not from delivery but from the beat-ack round trip: observers
// acknowledge each beat, and the holder demotes itself when evidence
// dries up (lease.Holder).
//
// Heartbeat deliberately does NOT admit joiners: admission must happen
// in LeaseEvidence, BEFORE the holder decides whether it may renew.
// Admitting here — after the renewal decision — would let a fresh
// standby hear a beat the holder issued without counting that standby
// in its evidence, skewing the two deadlines apart. Call LeaseEvidence
// first (lvmd.shard does) so a standby that subscribed to an idle
// primary still hears renewals. Producer thread only.
func (s *Shipper) Heartbeat(b wire.Beat) error {
	frame := wire.Encode(&b)
	for _, c := range s.conns {
		if c.dead.Load() {
			continue
		}
		select {
		case c.ch <- frame:
			s.Stats.BeatsShipped.Add(1)
			s.Stats.BytesShipped.Add(uint64(len(frame)))
		default:
			s.Stats.BeatsDropped.Add(1)
		}
	}
	return nil
}

// LeaseEvidence admits pending joiners and reports the delivery
// evidence the lease holder's renewal decision feeds on: whether a
// lease observer has ever been admitted (engaged, sticky — a partition
// that kills the connection does not disengage the holder) and the
// highest beat sequence any observer has acknowledged. Call it
// immediately before Holder.Renew, and ship the granted beat with
// Heartbeat: admission-before-renewal is what keeps the holder's
// evidence deadline at or before every monitor's expiry deadline.
// Producer thread only.
func (s *Shipper) LeaseEvidence() (engaged bool, acked uint64) {
	_ = s.admitJoins() //errgate:ok — admission trouble is the joiner's problem; evidence already gathered stands
	return s.obsSeen, s.beatAck.Load()
}

// MinAcked reports the lowest sequence any live consumer has
// acknowledged — the replication bound on how far the log may safely be
// truncated (compact.Shipper). ^uint64(0) when no consumer is attached.
// Producer thread only.
func (s *Shipper) MinAcked() uint64 {
	min := ^uint64(0)
	for _, c := range s.conns {
		if c.dead.Load() {
			continue
		}
		if a := c.acked.Load(); a < min {
			min = a
		}
	}
	return min
}

// Compacted tells the shipper the producer cut cutRecords records off
// the log's head (internal/compact): the base advances so logical
// sequence numbers stay monotonic, and the reader re-seeks its physical
// position. No epoch bump, no disconnects — consumers at or beyond the
// cut continue seamlessly, and any that later resume from below it are
// caught up with a snapshot instead of a full resync. Producer thread
// only.
func (s *Shipper) Compacted(cutRecords uint64) error {
	if cutRecords == 0 {
		return nil
	}
	s.reader.Sync()
	phys := uint64(s.reader.Offset())
	cutBytes := cutRecords * logrec.Size
	if cutBytes > phys {
		return fmt.Errorf("logship: compaction cut %d bytes but only %d scanned", cutBytes, phys)
	}
	s.base.Add(cutRecords)
	if err := s.reader.Seek(uint32(phys - cutBytes)); err != nil {
		return fmt.Errorf("logship: post-compaction reseek: %w", err)
	}
	return nil
}

// DropLaggards disconnects every live consumer whose ack trails seq and
// reports how many were cut. It is the bounded-wait escape hatch of
// synchronous replication: after ReleaseShip times out, the laggards are
// dropped (they rejoin and catch up from their acked cursor) rather than
// holding the producer's commit path hostage. Producer thread only.
func (s *Shipper) DropLaggards(seq uint64) int {
	n := 0
	for _, c := range s.conns {
		if !c.dead.Load() && c.acked.Load() < seq {
			s.Stats.Drops.Add(1)
			c.kill()
			n++
		}
	}
	s.sweepDead()
	return n
}

// sweepDead drops dead connections from the broadcast set.
func (s *Shipper) sweepDead() {
	live := s.conns[:0]
	for _, c := range s.conns {
		if !c.dead.Load() {
			live = append(live, c)
		}
	}
	s.conns = live
}

// WaitAcked blocks until every live consumer has acknowledged seq, or
// the timeout expires. Consumers that die while waiting stop being
// waited on (they will catch up when they rejoin). Producer thread only.
func (s *Shipper) WaitAcked(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, c := range s.conns {
			if !c.dead.Load() && c.acked.Load() < seq {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("logship: %d consumer(s) did not ack seq %d within %v", pending, seq, timeout)
		}
		t := time.NewTimer(remain)
		select {
		case <-s.ack:
			t.Stop()
		case <-t.C:
		}
	}
}

// ReleaseShip is the lock-release synchronization of Section 2.6 over a
// real transport: flush everything logged so far and wait until every
// live replica has acknowledged it. With streaming consumers keeping up,
// the backlog here is small and release latency approaches a round trip.
// Producer thread only.
func (s *Shipper) ReleaseShip(timeout time.Duration) error {
	if err := s.FlushAll(); err != nil {
		return err
	}
	return s.WaitAcked(s.sealedSeq, timeout)
}

// Close stops accepting, disconnects every consumer, and joins all
// shipper goroutines. Producer thread only.
func (s *Shipper) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	for c := range s.all {
		c.kill()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
