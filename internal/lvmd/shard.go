package lvmd

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"lvm/internal/lease"
	"lvm/internal/logrec"
	"lvm/internal/logship"
	"lvm/internal/metrics"
	"lvm/internal/wire"
)

// opKind discriminates shard queue entries.
type opKind byte

const (
	opOpen opKind = iota
	opCommit
	opRead
)

// shardOp is one client request routed to a shard's single-writer
// goroutine. reply delivers the encoded response frame; it must not block
// indefinitely (sessions enqueue with their own backpressure policy).
type shardOp struct {
	kind      opKind
	segID     uint64
	writes    []Write
	clientSeq uint64
	off, n    uint32
	t0        time.Time
	reply     func(frame []byte)
}

// ShardConfig tunes one serving shard.
type ShardConfig struct {
	Core CoreConfig
	// QueueDepth bounds the op queue (default 1024); MaxBatch bounds how
	// many ops one durability fence covers (default 256).
	QueueDepth int
	MaxBatch   int
	// Ship tunes the shard's replication shipper.
	Ship logship.Config
	// SyncReplicas makes the batch fence wait (up to SyncWait, default 2s)
	// for every subscriber to ack the sealed sequence before the batch is
	// acknowledged — acked therefore implies replicated, so a failover at
	// the acked watermark loses nothing. A subscriber that cannot keep up
	// is dropped rather than allowed to stall commits forever.
	SyncReplicas bool
	SyncWait     time.Duration
	// LeaseTTL enables the serving lease (internal/lease): the shard
	// broadcasts heartbeat frames renewing a lease of this duration down
	// its subscription stream, and a shard that cannot prove the lease
	// in time demotes itself: writes are refused with StatusDemoted from
	// then on (reads still serve; the data is consistent, just no longer
	// authoritative for new writes), because a standby observing the
	// missed renewal may already have promoted. Proof has two halves:
	// the renewal loop itself must run on schedule (catches pauses and
	// wedges), and once a standby has subscribed, some observer must
	// keep acknowledging beats (catches partitions — a cut-off primary
	// stops seeing acks and demotes within one TTL even though its own
	// loop is healthy). 0 disables the lease: nothing demotes the shard,
	// and no lvmd standby may follow it.
	LeaseTTL time.Duration
	// LeaseClock injects the lease time source (default lease.Wall) so
	// tests drive renewal and expiry deterministically.
	LeaseClock lease.Clock
}

func (c *ShardConfig) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.SyncWait <= 0 {
		c.SyncWait = 2 * time.Second
	}
}

// Shard is one serving shard: a ShardCore owned by the run goroutine,
// fed through a bounded op queue, with a replication shipper whose
// subscriber connections arrive via Adopt (the shard's own listener is a
// never-dialed placeholder — the daemon multiplexes subscribers over the
// client port).
type Shard struct {
	ID      int
	Core    *ShardCore
	Shipper *logship.Shipper

	cfg    ShardConfig
	ops    chan shardOp
	done   chan struct{}
	shipLn net.Listener
	err    error // set by the run goroutine on a durability failure
	digest [32]byte

	// holder is the serving-lease state machine (nil when LeaseTTL is
	// off), touched only by the run goroutine; demoted is the lease-loss
	// flag, atomic so sessions and Drain can read it.
	holder  *lease.Holder
	demoted atomic.Bool
}

// NewShard boots a shard around an optionally-recovered core (img/info
// from RecoverImage, or a promoted image with only info.Seq set; nil for
// a fresh shard) and starts its goroutine.
func NewShard(id int, cfg ShardConfig, img []byte, info RecoverInfo) (*Shard, error) {
	cfg.fill()
	c, err := RestartCore(cfg.Core, img, info)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		ID:   id,
		Core: c,
		cfg:  cfg,
		ops:  make(chan shardOp, cfg.QueueDepth),
		done: make(chan struct{}),
	}
	// The shipper numbers records in the manager's logical frame, so the
	// ack bound a compaction reads (MinAcked) and the cut it forwards
	// (Compacted) mean the same records. A recovered arena precedes the
	// new log, whose base is past zero whenever anything was ever
	// committed: a fresh subscriber is then caught up by snapshot instead
	// of a log replay that never contained the pre-existing state. The
	// serving epoch is the core's election (RestartCore): a promotion
	// grant exactly, otherwise strictly past every epoch an earlier
	// incarnation persisted — so each restart renumbers the stream,
	// subscribers of an earlier boot full-resync rather than resume
	// against a renumbered log, and a once-promoted shard is never fenced
	// out by replicas floored at its granted epoch.
	if cfg.Ship.StartSeq == 0 {
		cfg.Ship.StartSeq = c.Mgr.CutBase() / logrec.Size
	}
	if cfg.Ship.Epoch == 0 {
		cfg.Ship.Epoch = c.Mgr.Epoch()
	}
	ln, _ := logship.NewMemTransport()
	s.shipLn = ln
	s.Shipper = logship.NewShipper(c.Sys, c.Arena, c.LogSeg, ln, cfg.Ship)
	c.SetShipper(s.Shipper)
	c.EnableTuning()
	if cfg.LeaseTTL > 0 {
		clk := cfg.LeaseClock
		if clk == nil {
			clk = lease.Wall{}
		}
		s.holder = lease.NewHolder(clk, lease.Ticks(cfg.LeaseTTL), s.Shipper.Epoch())
	}
	s.cfg = cfg // keep the filled Ship/lease values the goroutine reads
	go s.run()
	return s, nil
}

// submit enqueues an op, waiting up to stall for queue space. False
// means the queue stayed full (or the shard is gone) — the session
// applies its backpressure policy (PolicyStall kills the connection
// after the stall; PolicyDrop passes stall=0 and kills immediately).
// The stall timer is armed only once the queue is found full.
func (s *Shard) submit(op shardOp, stall time.Duration) bool {
	select {
	case s.ops <- op:
		return true
	case <-s.done:
		return false
	default:
		if stall <= 0 {
			return false
		}
	}
	t := time.NewTimer(stall)
	defer t.Stop()
	select {
	case s.ops <- op:
		return true
	case <-s.done:
		return false
	case <-t.C:
		return false
	}
}

// run is the shard's single-writer loop: collect a batch of ops, apply
// them to the simulation, fence durability once for the whole batch,
// then acknowledge. Group commit across clients falls out of batching —
// one tail fsync covers every commit in the batch.
func (s *Shard) run() {
	defer close(s.done)
	// The heartbeat ticker renews the serving lease roughly four times
	// per TTL — enough slack that only a genuine stall (not scheduling
	// noise) misses the deadline. Renewal is a select case, not a
	// goroutine: the lease belongs to the single-writer loop, so a loop
	// wedged behind a stuck fence stops renewing, which is exactly the
	// signal the standbys promote on.
	var beatC <-chan time.Time
	if s.holder != nil {
		iv := s.cfg.LeaseTTL / 4
		if iv <= 0 {
			iv = time.Millisecond
		}
		tick := time.NewTicker(iv)
		defer tick.Stop()
		beatC = tick.C
	}
	for {
		var op shardOp
		var ok bool
		select {
		case op, ok = <-s.ops:
		case <-beatC:
			s.leaseTick()
			continue
		}
		if !ok {
			s.drainExit()
			return
		}
		batch := append(make([]shardOp, 0, s.cfg.MaxBatch), op)
		closed := false
	fill:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case op, ok := <-s.ops:
				if !ok {
					closed = true
					break fill
				}
				batch = append(batch, op)
			default:
				break fill
			}
		}
		s.process(batch)
		if closed {
			s.drainExit()
			return
		}
	}
}

// staged is a response held back until the batch's durability fence.
type staged struct {
	frame  []byte
	t0     time.Time
	commit bool
	// mut marks a successful mutation ack (open or commit). If the lease
	// is found lost after the fence, these replies are suppressed — the
	// client sees an in-doubt request, never an ack from a fenced zombie.
	mut   bool
	reply func([]byte)
}

func (s *Shard) process(batch []shardOp) {
	// Check the lease before staging anything: a loop resumed after a
	// pause longer than the TTL has both the op queue and the beat ticker
	// ready, and Go's select picks uniformly — without this check the
	// batch could be processed and acked before the ticker case ever ran,
	// after a standby already promoted.
	s.leaseTick()
	c := s.Core
	// out[i] answers batch[i]; reads are filled in after the fence.
	out := make([]staged, 0, len(batch))
	mutated := false
	for _, op := range batch {
		if s.err != nil {
			out = append(out, s.refuse(op, StatusDraining))
			continue
		}
		if s.demoted.Load() && (op.kind == opOpen || op.kind == opCommit) {
			// Lease lost: a standby may already be the writable primary.
			// Accepting a write here would fork the timeline the moment
			// it promoted; refusing is what "exactly one writable
			// primary" costs. Reads stay up — the data is consistent to
			// the last acked commit.
			out = append(out, s.refuse(op, StatusDemoted))
			continue
		}
		switch op.kind {
		case opOpen:
			slot, _, err := c.Open(op.segID)
			resp := wire.OpenResp{
				SegID:     op.segID,
				SlotSize:  c.SlotSize(),
				ArenaSize: c.Arena.Size(),
				Shard:     byte(s.ID),
			}
			switch {
			case err == ErrNoSlot:
				resp.Status = StatusNoSlot
			case err != nil:
				resp.Status = StatusBad
			default:
				resp.SlotOff = c.SlotOff(slot)
				mutated = true
			}
			out = append(out, staged{frame: wire.Encode(&resp),
				t0: op.t0, mut: resp.Status == StatusOK, reply: op.reply})
		case opCommit:
			seq, err := c.Commit(op.segID, op.writes)
			resp := wire.CommitResp{SegID: op.segID, ClientSeq: op.clientSeq, ShardSeq: seq}
			if err != nil {
				resp.Status = s.opStatus(op.segID)
			} else {
				mutated = true
			}
			out = append(out, staged{frame: wire.Encode(&resp),
				t0: op.t0, commit: resp.Status == StatusOK, mut: resp.Status == StatusOK,
				reply: op.reply})
		case opRead:
			out = append(out, staged{t0: op.t0, reply: op.reply})
		}
	}
	if mutated && s.err == nil {
		// The fence: nothing above is acknowledged until this returns.
		if err := c.SyncBatch(); err != nil {
			s.fail(err)
			return
		}
		// Shipping trouble does not gate client durability — the tail
		// fsync above already happened; consumers redial and resync.
		_ = s.Shipper.FlushAll() //errgate:ok — replication is advisory for client acks
		if s.cfg.SyncReplicas {
			sealed := s.Shipper.SealedSeq()
			if err := s.Shipper.WaitAcked(sealed, s.cfg.SyncWait); err != nil {
				// A replica that can't keep up loses its seat, not the
				// clients their throughput.
				s.Shipper.DropLaggards(sealed)
			}
		}
	}
	// Re-check the lease after the fence: a fence that stalled past the
	// TTL means a standby may have promoted while these mutations waited
	// for durability. Their acks are suppressed below — the writes exist
	// (durable here) but may not exist on the promoted timeline, so the
	// client must see them as in-doubt, not acknowledged.
	s.leaseTick()
	leaseLost := s.demoted.Load()
	// Reads run after the fence: a client that commits then reads (even
	// on another connection) sees its acked writes.
	for bi, op := range batch {
		if op.kind != opRead || out[bi].frame != nil {
			continue
		}
		data, err := c.Read(op.segID, op.off, op.n)
		resp := wire.ReadResp{SegID: op.segID, Off: op.off, Data: data}
		if err != nil {
			resp.Status = s.opStatus(op.segID)
		}
		out[bi] = staged{frame: wire.Encode(&resp), t0: op.t0, reply: op.reply}
	}
	for _, r := range out {
		if r.reply == nil || leaseLost && r.mut {
			continue
		}
		if r.commit {
			c.sh.Observe(metrics.HistLvmdCommitAck, uint64(time.Since(r.t0).Nanoseconds()))
		}
		r.reply(r.frame)
	}
	// A refused compaction costs log headroom, not correctness; the next
	// batch retries. A full log that then loses records fails SyncBatch.
	_, _ = c.MaybeCompact() //errgate:ok — deferred to the SyncBatch loss check
}

// leaseTick renews the serving lease and broadcasts the heartbeat. A
// renewal past the TTL — or, once a standby has subscribed, a TTL
// without any beat acknowledged — means this shard cannot prove it is
// still the primary: it demotes itself permanently (until restart) and
// stops heartbeating, so even if its beats could still reach a standby
// they would not re-arm a superseded deadline. Evidence is gathered
// (and joiners admitted) BEFORE the renewal decision, which is what
// keeps the holder's evidence deadline at or before every monitor's
// expiry deadline.
func (s *Shard) leaseTick() {
	if s.holder == nil || s.demoted.Load() {
		return
	}
	engaged, acked := s.Shipper.LeaseEvidence()
	b, ok := s.holder.Renew(engaged, acked)
	if !ok {
		s.demoted.Store(true)
		return
	}
	// A heartbeat that fails to broadcast (a full consumer window) is
	// advisory for delivery — the next beat covers it — and safe for the
	// lease: an undelivered beat is never acked, so it earns no evidence.
	_ = s.Shipper.Heartbeat(b) //errgate:ok — renewal is best effort; the next beat covers it
}

// Demoted reports whether the shard lost its serving lease and now
// refuses writes.
func (s *Shard) Demoted() bool { return s.demoted.Load() }

// opStatus classifies a failed commit or read: a segment this shard has
// no slot for is unknown, anything else a bad request.
func (s *Shard) opStatus(segID uint64) byte {
	if _, known := s.Core.Lookup(segID); !known {
		return StatusUnknown
	}
	return StatusBad
}

// refuse stages an error response matching the op's expected frame type.
func (s *Shard) refuse(op shardOp, status byte) staged {
	var resp wire.Msg
	switch op.kind {
	case opOpen:
		resp = &wire.OpenResp{SegID: op.segID, Status: status, Shard: byte(s.ID)}
	case opCommit:
		resp = &wire.CommitResp{SegID: op.segID, ClientSeq: op.clientSeq, Status: status}
	default:
		resp = &wire.ReadResp{SegID: op.segID, Off: op.off, Status: status}
	}
	return staged{frame: wire.Encode(resp), t0: op.t0, reply: op.reply}
}

// fail marks the shard broken: the durability fence failed, so none of
// the batch's staged acknowledgements may be sent — an ack after a
// failed fence would be a durability lie. The batch's clients see their
// requests die unanswered (their connections are torn down when the
// server notices the failure), which reads as an in-doubt outcome — the
// honest one.
func (s *Shard) fail(err error) {
	s.err = fmt.Errorf("lvmd: shard %d failed: %w", s.ID, err)
}

// drainExit runs after the op channel closes: fence whatever is left,
// stop the shipper, and commit a final checkpoint so a clean restart
// recovers from the image alone.
func (s *Shard) drainExit() {
	c := s.Core
	if s.err == nil {
		if err := c.SyncBatch(); err != nil {
			s.err = err
		}
	}
	// Hand the last records to any live subscribers before disconnecting
	// them — best effort with a bounded wait; a consumer that misses it
	// resyncs from its acked sequence on reconnect.
	_ = s.Shipper.ReleaseShip(2 * time.Second) //errgate:ok — replication handover is advisory at drain
	s.Shipper.Close()
	if s.err == nil {
		if err := c.Checkpoint(); err != nil {
			s.err = err
		}
	}
	s.digest = c.Digest()
}

// Close drains the shard: no further submits may race this.
func (s *Shard) Close() {
	close(s.ops)
	<-s.done
	s.shipLn.Close()
}

// Err reports a shard durability failure (nil while healthy). Safe only
// after done (Close) or from the run goroutine.
func (s *Shard) Err() error { return s.err }

// Digest is the shard's final state hash, valid after Close.
func (s *Shard) Digest() [32]byte { return s.digest }

// Adopt hands a subscriber connection to the shard's shipper.
func (s *Shard) Adopt(conn net.Conn) { s.Shipper.Adopt(conn) }
