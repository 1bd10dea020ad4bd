// Package lease adds automatic failure detection to the failover stack:
// a serving lease the primary must renew within a bounded interval, and
// a standby-side monitor that promotes when renewals stop — the classic
// lease / fencing-token pattern, and the only way a standby promotes.
//
// A lease grant is just an epoch grant with a deadline, and one
// Authority owns both: acquiring a lease and promoting a replica
// (Authority.Promote, the one promotion entry point) each prepare and
// commit a fencing grant (bumping the epoch), so the persisted-epoch
// machinery — ErrFenced on a stale welcome, FencedHellos on a
// future-epoch hello, the checkpointed serving epoch that survives
// restart — is what keeps a paused-then-resumed primary from ever
// splitting the brain. Renewal is cheap and grant-free: the holder
// broadcasts heartbeat frames (wire.Beat) down the same logship
// subscription stream that ships log batches, and each standby
// re-arms its expiry deadline at receipt.
//
// The safety argument needs no clock synchronization, only comparable
// clock *rates*, and it has two halves — one per failure shape:
//
//   - Stall (pause, wedge, SIGSTOP): the holder measures the renewal gap
//     on its own clock and demotes itself when the gap exceeds the TTL,
//     while each observer arms its deadline at its own receipt time plus
//     the same TTL. Receipt necessarily happens after send, so the
//     observer's deadline expires no earlier (in real time) than the
//     holder's own.
//
//   - Partition (the loop stays live, the messages die): self-measured
//     gaps prove nothing — a partitioned-but-alive primary renews its
//     own loop forever while the standby hears silence and promotes. So
//     renewal also demands *delivery evidence*: observers (consumers
//     that feed a Monitor) acknowledge every heartbeat, and once an
//     observer has ever been admitted to the stream, the holder demotes
//     unless some observer acknowledged a beat issued within the last
//     TTL. An acked beat was received at or after its issue tick, so
//     the observer's deadline (receipt + TTL) expires no earlier than
//     the holder's evidence deadline (issue + TTL). Evidence is
//     gathered before each beat is broadcast (logship.LeaseEvidence
//     admits joiners first), so a beat can never arm an observer the
//     holder has not yet started demanding evidence for.
//
// A dead primary trivially stops renewing. Either way, by the time a
// standby's monitor expires, the primary has already refused to keep
// serving: at most one node believes it holds the serving lease. The
// evidence rule assumes the topology the failover stack actually builds
// — one promotable standby per primary (cmd/lvmd); with several
// independent observers, evidence from one cannot speak for another.
//
// Every component takes an injected Clock in abstract ticks (nanoseconds
// under the production Wall clock), so crashtest drives expiry
// deterministically with a Manual clock while the daemons run on wall
// time.
package lease

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lvm/internal/logship"
	"lvm/internal/wire"
)

// Clock is the injected time source, in abstract monotonic ticks. Wall
// uses nanoseconds; Manual uses whatever the test says. Both sides of a
// lease must tick in comparable units, never synchronized values.
type Clock interface {
	Now() uint64
}

// Wall is the production clock: monotonic nanoseconds since process
// start. It deliberately reads Go's monotonic clock, never the
// steppable wall clock — an NTP or administrative step backward would
// underflow a holder's renewal gap (permanently demoting a healthy
// primary) and a step forward would expire a monitor early (promoting
// while the primary still serves). Lease ticks order events within one
// process; across processes only the tick *rate* matters.
type Wall struct{}

// wallBase anchors Wall ticks. time.Since reads the monotonic clock
// carried by this instant, so later steps of the wall clock are
// invisible to the gap arithmetic.
var wallBase = time.Now()

// Now implements Clock.
func (Wall) Now() uint64 { return uint64(time.Since(wallBase)) }

// Ticks converts a duration to Wall-clock lease ticks.
func Ticks(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d.Nanoseconds())
}

// Manual is a settable clock for deterministic tests: time moves only
// when the test advances it. Safe for concurrent use (the monitor reads
// it from the replica's consume goroutine).
type Manual struct {
	mu  sync.Mutex
	now uint64
}

// NewManual returns a manual clock starting at start ticks.
func NewManual(start uint64) *Manual { return &Manual{now: start} }

// Now implements Clock.
func (m *Manual) Now() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d ticks.
func (m *Manual) Advance(d uint64) {
	m.mu.Lock()
	m.now += d
	m.mu.Unlock()
}

// Lease errors.
var (
	// ErrHeld refuses an acquisition while another holder's lease is
	// still current.
	ErrHeld = errors.New("lease: held by another primary")
	// ErrExpired refuses a renewal past the deadline: the holder must
	// re-acquire, which bumps the epoch and fences its old grant.
	ErrExpired = errors.New("lease: expired")
	// ErrNotHolder refuses a renewal by anyone but the current holder.
	ErrNotHolder = errors.New("lease: not the holder")
)

// Grant is a fencing token: the authority's permission to act as primary
// for one epoch.
type Grant struct {
	Epoch uint32
	Token uint64
}

// Authority is the one promotion coordinator: the durable arbiter of
// which fencing grant is current, and of the serving lease that grant
// carries. Exactly one grant validates at any moment — the old
// primary's until the commit, the new one's after it — and at most one
// lease is unexpired. Acquiring a lease afresh and promoting a replica
// both prepare and commit the next grant, so the new lease and the
// fencing epoch are the same atomic step. It is tiny, single-threaded
// coordinator state, durable by contract: in production it would live
// in a lease service; in the crash tests it survives the simulated kill.
type Authority struct {
	clock Clock
	ttl   uint64

	cur      Grant
	prepared bool
	proposed Grant
	cand     string

	holder  string
	expiry  uint64
	granted bool
}

// NewAuthority starts an authority whose current grant is cur (the zero
// Grant: no primary granted yet) and whose leases expire ttl ticks after
// acquisition or last renewal. No lease is outstanding until Acquire or
// Promote grants one.
func NewAuthority(clock Clock, ttl uint64, cur Grant) *Authority {
	return &Authority{clock: clock, ttl: ttl, cur: cur}
}

// splitmix64 is the token mixer (deterministic, seeded by epoch+cand).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// prepare proposes the next grant for candidate cand. Re-preparing for
// the same candidate returns the same proposal (idempotent resume); a
// different candidate supersedes it.
func (a *Authority) prepare(cand string) Grant {
	if a.prepared && a.cand == cand {
		return a.proposed
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(cand); i++ {
		h = (h ^ uint64(cand[i])) * 1099511628211
	}
	a.proposed = Grant{
		Epoch: a.cur.Epoch + 1,
		Token: splitmix64(uint64(a.cur.Epoch+1)<<32 ^ h),
	}
	a.cand = cand
	a.prepared = true
	return a.proposed
}

// commitGrant installs the prepared grant as current: the moment of
// promotion. The old grant stops validating here, atomically.
func (a *Authority) commitGrant() (Grant, error) {
	if !a.prepared {
		return Grant{}, fmt.Errorf("lease: commit without a prepared grant")
	}
	a.cur = a.proposed
	a.prepared = false
	return a.cur, nil
}

// Validate reports whether g is the current grant — the check every
// write path makes before acting as primary.
func (a *Authority) Validate(g Grant) bool { return g == a.cur && g.Epoch != 0 }

// Acquire grants holder the serving lease. A first acquisition or one
// after expiry prepares and commits a fresh fencing grant (epoch bump:
// the previous holder's grant stops validating here); re-acquiring an
// unexpired lease by the same holder just pushes the deadline and keeps
// the grant. Another holder's unexpired lease refuses with ErrHeld.
func (a *Authority) Acquire(holder string) (Grant, error) {
	now := a.clock.Now()
	if a.granted && now <= a.expiry {
		if a.holder != holder {
			return Grant{}, fmt.Errorf("%w: %q holds until tick %d", ErrHeld, a.holder, a.expiry)
		}
		a.expiry = now + a.ttl
		return a.cur, nil
	}
	a.prepare(holder)
	g, err := a.commitGrant()
	if err != nil {
		return Grant{}, err
	}
	a.adopt(holder, now)
	return g, nil
}

// adopt makes holder the lease's holder from tick now.
func (a *Authority) adopt(holder string, now uint64) {
	a.holder = holder
	a.expiry = now + a.ttl
	a.granted = true
}

// Renew pushes the deadline of an unexpired lease. The grant must be
// current (a superseded grant is a zombie and refuses with ErrNotHolder)
// and the deadline not yet passed (a late renewal refuses with
// ErrExpired — the holder must re-Acquire, burning an epoch, so anything
// it did after the deadline is fenced by its stale grant).
func (a *Authority) Renew(holder string, g Grant) (uint64, error) {
	if !a.granted || a.holder != holder || !a.Validate(g) {
		return 0, fmt.Errorf("%w: renewal by %q epoch %d", ErrNotHolder, holder, g.Epoch)
	}
	now := a.clock.Now()
	if now > a.expiry {
		return 0, fmt.Errorf("%w: deadline tick %d passed at %d", ErrExpired, a.expiry, now)
	}
	a.expiry = now + a.ttl
	return a.expiry, nil
}

// Holder reports the current holder and whether its lease is unexpired.
func (a *Authority) Holder() (string, bool) {
	return a.holder, a.granted && a.clock.Now() <= a.expiry
}

// Promotion phase names, in order; PromoteHooks.After sees each one.
const (
	PhaseFreeze   = "freeze"
	PhasePrepare  = "prepare"
	PhaseCommit   = "commit"
	PhaseActivate = "activate"
)

// PromoteHooks injects crash points for the crash tests: After runs once
// the named phase's state has settled, and an error aborts the promotion
// right there (the simulated kill).
type PromoteHooks struct {
	After func(phase string) error
}

// PromoteResult reports a completed promotion.
type PromoteResult struct {
	Grant      Grant
	Watermark  uint64 // acked sequence the new primary serves from
	RolledBack int    // words undone to reach the last transaction boundary
	// Lost is the bounded data loss: records between the watermark and
	// the dead primary's head (deadHead), i.e. writes the dead primary
	// logged but never got acknowledged by this replica.
	Lost uint64
}

// Promote turns replica r into the primary at its acked watermark. It
// refuses with ErrHeld while a lease is unexpired (a slow primary is not
// a dead one until its TTL says so); an authority that never granted a
// lease promotes at once. The handshake: freeze (end the session, roll
// half-replicated transactions back to the last commit marker), prepare
// and commit the next grant, activate (the replica adopts the granted
// epoch, so its sessions fence the zombie), then adopt the grant as
// cand's lease. deadHead is the dead primary's last known head; its
// distance to the watermark is the measured loss. Every phase is
// idempotent and the lease is adopted last, so a coordinator that dies
// mid-promotion runs Promote again and finishes, possibly burning an
// extra epoch: epochs only need to move forward.
func (a *Authority) Promote(r *logship.Replica, cand string, deadHead uint64, hooks PromoteHooks) (PromoteResult, error) {
	if _, held := a.Holder(); held {
		return PromoteResult{}, fmt.Errorf("%w: refusing promotion of %q", ErrHeld, cand)
	}
	after := hooks.After
	if after == nil {
		after = func(string) error { return nil }
	}
	// Freeze: no session may be applying records while we settle state.
	r.Kill()
	rolled, err := r.Rollback()
	if err != nil {
		return PromoteResult{}, err
	}
	if err := after(PhaseFreeze); err != nil {
		return PromoteResult{}, err
	}
	a.prepare(cand)
	if err := after(PhasePrepare); err != nil {
		return PromoteResult{}, err
	}
	g, err := a.commitGrant()
	if err != nil {
		return PromoteResult{}, err
	}
	if err := after(PhaseCommit); err != nil {
		return PromoteResult{}, err
	}
	r.SetEpoch(g.Epoch)
	if err := after(PhaseActivate); err != nil {
		return PromoteResult{}, err
	}
	a.adopt(cand, a.clock.Now())
	res := PromoteResult{Grant: g, Watermark: r.LastSeq(), RolledBack: rolled}
	if deadHead > res.Watermark {
		res.Lost = deadHead - res.Watermark
	}
	return res, nil
}

// Holder is the primary-side lease state machine: it turns renewal
// attempts into heartbeat frames and self-demotes when it cannot prove
// it renewed in time — by its own clock (the stall half of the safety
// argument) and by delivery evidence (the partition half). Single-
// goroutine (the shard's run loop).
type Holder struct {
	clock Clock
	ttl   uint64
	epoch uint32
	seq   uint64
	last  uint64
	lost  bool

	// Delivery evidence. engaged latches once an observer was admitted
	// to the stream: from then on the lease is only renewable on proof
	// that an observer heard a beat issued within the last TTL. evidTick
	// is the issue tick that proof currently covers; pending remembers
	// the issue tick of each not-yet-acknowledged beat so an incoming
	// ack can be dated by when its beat was *sent*, not when the ack
	// came back.
	engaged  bool
	evidTick uint64
	ackSeen  uint64
	pending  []beatStamp
}

// beatStamp records when one heartbeat was issued, by renewal number.
type beatStamp struct{ seq, tick uint64 }

// NewHolder starts a held lease for the serving epoch: the grant moment
// counts as the first renewal.
func NewHolder(clock Clock, ttl uint64, epoch uint32) *Holder {
	return &Holder{clock: clock, ttl: ttl, epoch: epoch, last: clock.Now()}
}

// Renew attempts a renewal. engaged reports whether any promotion-
// capable observer has ever been admitted to the heartbeat stream, and
// acked the newest beat sequence an observer has acknowledged — both
// straight from logship's LeaseEvidence, gathered BEFORE the previous
// beats were broadcast so no observer can be armed unaccounted-for.
//
// The lease is lost — observers may already have promoted past us — if
// either the gap since the previous renewal exceeded the TTL (a stalled
// loop) or, once engaged, no observer acknowledged a beat issued within
// the TTL (a partition: the loop is fine, the messages are not). Loss
// demotes permanently (ok=false, every later call refuses too).
// Otherwise it returns the heartbeat to broadcast: the first beat
// announces the grant, later ones renew it.
func (h *Holder) Renew(engaged bool, acked uint64) (b wire.Beat, ok bool) {
	if h.lost {
		return wire.Beat{}, false
	}
	now := h.clock.Now()
	if now-h.last > h.ttl {
		h.lost = true
		return wire.Beat{}, false
	}
	// Date the newest acknowledged beat by its issue tick. Acks for
	// sequences never issued (a buggy or hostile consumer) are ignored;
	// acks for beats already pruned cannot move the evidence forward.
	if acked > h.ackSeen && acked <= h.seq {
		h.ackSeen = acked
		i := 0
		for ; i < len(h.pending) && h.pending[i].seq <= acked; i++ {
			h.evidTick = h.pending[i].tick
		}
		h.pending = append(h.pending[:0], h.pending[i:]...)
	}
	if engaged && !h.engaged {
		// First observer admitted: it hears no beat issued before this
		// renewal, so demanding evidence from now on starts the holder's
		// deadline no later than any observer's.
		h.engaged = true
		h.evidTick = now
	}
	if h.engaged && now-h.evidTick > h.ttl {
		h.lost = true
		return wire.Beat{}, false
	}
	h.last = now
	h.seq++
	h.pending = append(h.pending, beatStamp{seq: h.seq, tick: now})
	// A beat issued more than a TTL ago could not push the evidence
	// deadline past now even if acked, so its stamp is dead weight.
	for len(h.pending) > 0 && now-h.pending[0].tick > h.ttl {
		h.pending = h.pending[1:]
	}
	kind := wire.BeatRenew
	if h.seq == 1 {
		kind = wire.BeatGrant
	}
	return wire.Beat{Kind: kind, Epoch: h.epoch, Seq: h.seq, TTL: h.ttl}, true
}

// Lost reports whether the holder missed a renewal and demoted itself.
func (h *Holder) Lost() bool { return h.lost }

// Monitor is the standby-side observer: it watches the heartbeat stream
// off a replica subscription and reports expiry. Observe is called from
// the replica's consume goroutine while Expired polls from the standby's
// watcher, so the monitor locks. The deadline arms at *receipt* time
// plus the TTL — receipt happens after send, so this deadline expires no
// earlier than the holder's own, which is the whole safety argument.
type Monitor struct {
	mu       sync.Mutex
	clock    Clock
	ttl      uint64
	heard    bool
	deadline uint64
	epoch    uint32
	seq      uint64
	beats    uint64
	stale    uint64
}

// NewMonitor builds a monitor expecting renewals within ttl ticks.
func NewMonitor(clock Clock, ttl uint64) *Monitor {
	return &Monitor{clock: clock, ttl: ttl}
}

// Observe feeds one heartbeat. Beats from a superseded epoch are
// dropped: a zombie ex-primary's heartbeats must never re-arm the
// deadline of the generation that replaced it. The deadline arms with
// the SMALLER of the monitor's configured TTL and the beat's
// wire-carried one: a primary configured shorter expires us early
// (safe), but a single beat carrying a huge TTL — a -lease-ms mismatch,
// a bug, a hostile peer — must not disable failover on this shard for
// that long.
func (m *Monitor) Observe(b wire.Beat) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Epoch < m.epoch {
		m.stale++
		return
	}
	m.epoch = b.Epoch
	m.heard = true
	m.beats++
	m.seq = b.Seq
	ttl := b.TTL
	if m.ttl > 0 && (ttl == 0 || ttl > m.ttl) {
		ttl = m.ttl
	}
	m.deadline = m.clock.Now() + ttl
}

// Expired reports whether a once-heard lease has gone unrenewed past its
// deadline. A monitor that never heard a beat reports false: promotion
// must not trigger before the primary proved it was alive on this
// stream.
func (m *Monitor) Expired() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.heard && m.clock.Now() > m.deadline
}

// Epoch reports the highest epoch observed in a heartbeat.
func (m *Monitor) Epoch() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Beats reports heartbeats accepted; Stale reports zombie beats dropped.
func (m *Monitor) Beats() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.beats
}

// Stale reports heartbeats dropped for carrying a superseded epoch.
func (m *Monitor) Stale() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stale
}
