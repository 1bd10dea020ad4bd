package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/fault"
	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/recovery"
)

// releaseWait bounds the replication-ack waits. A generous bound keeps
// slow CI machines from flaking; on success the wait leaves no trace in
// the outcome line, so determinism is unaffected.
const releaseWait = 10 * time.Second

// leaseTTL is the serving-lease TTL in manual-clock ticks. The clock
// only moves when a scenario advances it, so every deadline comparison
// is cycle-deterministic: both executions of a plan see identical
// expiry decisions regardless of wall-clock scheduling.
const leaseTTL = 1000

// promoSegSize is the replicated segment of every failover template.
const promoSegSize = 8 * core.PageSize

// promotionRig is the machine every failover template builds: a primary
// (an LVM producer and its shipper) streaming a marker-protocol workload
// to one marker-tracking replica, and the fencing authority whose grant
// promotion must supersede. A leased rig adds a serving lease on a
// manual clock: the primary renews it by heartbeat and the standby's
// monitor watches the beats. A template adds only its own timeline —
// the faults, the promotion and the checks — and its report fields.
//
// No wall-clock state reaches the outcome line, so both executions of a
// plan must match byte-for-byte.
type promotionRig struct {
	t         template
	plan      fault.Plan
	killPhase string // the handshake phase the seed kills

	sys  *core.System
	prod *dsm.LVMProducer
	ship *logship.Shipper
	r    *logship.Replica
	dial logship.DialFunc

	clk   *lease.Manual
	au    *lease.Authority
	grant lease.Grant // the primary's grant

	// Leased rigs only.
	holder *lease.Holder
	mon    *lease.Monitor
	beats  uint64

	wr     *fault.RNG
	shadow map[uint32]uint32 // acked complete-transaction state
	recs   uint64            // records the primary has logged
	seq    uint32
	note   string // the first failed check; empty while the plan passes
}

// newPromotionRig builds the rig and connects the replica; a leased rig
// also sends the first beat.
func newPromotionRig(t template, plan fault.Plan, leased bool) *promotionRig {
	phases := []string{lease.PhaseFreeze, lease.PhasePrepare, lease.PhaseCommit, lease.PhaseActivate}
	rg := &promotionRig{
		t: t, plan: plan, killPhase: phases[plan.CrashAtCycle%uint64(len(phases))],
		wr: fault.NewRNG(plan.Seed + 1), shadow: make(map[uint32]uint32),
	}
	cfg := logship.Config{FlushRecords: 8}
	var err error
	rg.clk = lease.NewManual(0)
	if leased {
		rg.au = lease.NewAuthority(rg.clk, leaseTTL, lease.Grant{})
		rg.grant, err = rg.au.Acquire("primary")
		must(err, "acquire")
		cfg.Epoch = rg.grant.Epoch
		rg.holder = lease.NewHolder(rg.clk, leaseTTL, rg.grant.Epoch)
		rg.mon = lease.NewMonitor(rg.clk, leaseTTL)
	} else {
		// No lease was ever granted, so promotion runs at once: an
		// operator's failover.
		rg.grant = lease.Grant{Epoch: 1, Token: 0x1D}
		rg.au = lease.NewAuthority(rg.clk, leaseTTL, rg.grant)
	}

	ln, dial := logship.NewMemTransport()
	rg.dial = dial
	rg.sys = core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := rg.sys.NewProcess(0, rg.sys.NewAddressSpace())
	rg.prod, err = dsm.NewLVMProducer(rg.sys, p, promoSegSize, 512)
	must(err, "producer")
	rg.ship = logship.NewShipper(rg.sys, rg.prod.Segment(), rg.prod.LogSegment(), ln, cfg)
	built := false
	defer func() {
		if !built {
			rg.ship.Close()
		}
	}()
	rg.r, err = logship.NewReplica(dial, promoSegSize)
	must(err, "replica")
	rg.r.TrackMarkers(markerLimit)
	if leased {
		rg.r.TrackLease(rg.mon.Observe)
	}
	must(rg.r.Connect(), "connect")
	if leased {
		rg.beat()
	}
	built = true
	return rg
}

// commitTxn logs one complete transaction: begin marker, 1..maxBatch
// seeded stores, commit marker. Acked transactions enter the shadow the
// promoted image must keep.
func (rg *promotionRig) commitTxn(acked bool) {
	rg.seq++
	rg.prod.Write(0, rg.seq)
	rg.recs++
	n := 1 + rg.wr.Intn(rg.t.maxBatch)
	for j := 0; j < n; j++ {
		off := wordOff(rg.wr, promoSegSize)
		val := uint32(rg.wr.Next())
		rg.prod.Write(off, val)
		if acked {
			rg.shadow[off] = val
		}
		rg.recs++
	}
	rg.prod.Write(0, rg.seq|recovery.MarkerCommit)
	rg.recs++
}

// commitAcked commits n transactions and waits until the replica has
// acknowledged them all; with flush set, every sixth is followed by a
// Flush.
func (rg *promotionRig) commitAcked(n int, flush bool) {
	for i := 0; i < n; i++ {
		rg.commitTxn(true)
		if flush && i%6 == 5 {
			must(rg.ship.Flush(), "flush")
		}
	}
	must(rg.ship.ReleaseShip(releaseWait), "release")
}

// shipHalfTxn ships a half-replicated transaction: the begin marker plus
// a few stores reach the replica (batches seal at record counts, not
// transaction boundaries) but the commit marker never ships. Promotion
// must roll these back.
func (rg *promotionRig) shipHalfTxn() {
	rg.seq++
	rg.prod.Write(0, rg.seq)
	rg.recs++
	partial := 1 + int(rg.plan.Seed%3)
	for j := 0; j < partial; j++ {
		off := wordOff(rg.wr, promoSegSize)
		rg.prod.Write(off, uint32(rg.wr.Next()))
		rg.recs++
	}
	must(rg.ship.Flush(), "flush")
	must(rg.ship.ReleaseShip(releaseWait), "release")
}

// unshippedTail logs the dead primary's unshipped tail and returns its
// head: the head runs ahead of the acked watermark by exactly these
// records — the measured loss bound. The acked shadow must not see
// them: they are the loss.
func (rg *promotionRig) unshippedTail() uint64 {
	for i := 0; i < 4+int(rg.plan.Seed%5); i++ {
		rg.commitTxn(false)
	}
	return rg.recs
}

// beat renews the lease and broadcasts it. Called only at points
// where the subscription queue is drained (post-connect, post-
// release), so the non-blocking enqueue never drops and the beat
// count stays deterministic. Evidence is gathered (and joiners
// admitted) before each renewal, as the real shard loop does; under
// the frozen manual clock the renewal verdict cannot depend on how
// many acks have raced back yet, so determinism holds.
func (rg *promotionRig) beat() {
	b, ok := rg.holder.Renew(rg.ship.LeaseEvidence())
	if !ok {
		setupFail("beat err=holder lost the lease mid-workload")
	}
	must(rg.ship.Heartbeat(b), "beat")
	rg.beats++
}

// awaitBeats blocks until the monitor has observed every beat sent.
// The count itself is deterministic because beats are only broadcast
// while the subscription queue is drained.
func (rg *promotionRig) awaitBeats() {
	if !waitFor(func() bool { return rg.mon.Beats() >= rg.beats }) {
		setupFail("monitor saw %d/%d beats", rg.mon.Beats(), rg.beats)
	}
}

// waitFor spins until cond holds or releaseWait passes. The wait is
// wall-clock (frame delivery is asynchronous) but leaves no trace in the
// outcome line, and the manual clock does not move while it spins.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(releaseWait)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// promoteThroughKill kills the promotion handshake at the seed's phase,
// then simply runs it again — Promote is idempotent.
func (rg *promotionRig) promoteThroughKill(head uint64) lease.PromoteResult {
	errKill := errors.New("crashtest: simulated kill")
	_, err := rg.au.Promote(rg.r, "standby", head, lease.PromoteHooks{
		After: func(ph string) error {
			if ph == rg.killPhase {
				return errKill
			}
			return nil
		},
	})
	if !errors.Is(err, errKill) {
		setupFail("kill at %s not delivered: err=%v", rg.killPhase, err)
	}
	res, err := rg.au.Promote(rg.r, "standby", head, lease.PromoteHooks{})
	must(err, "promotion resume")
	return res
}

// checkGrants: no split-brain — the primary's grant stops validating the
// moment the promoted one commits.
func (rg *promotionRig) checkGrants(res lease.PromoteResult) {
	rg.want(!rg.au.Validate(rg.grant), "stale grant still validates: split-brain")
	rg.want(rg.au.Validate(res.Grant), "promoted grant does not validate")
}

// checkAcked counts the acked words the replica image lost: acked state
// must survive exactly.
func (rg *promotionRig) checkAcked() (img []byte, diffs int) {
	img = rg.r.Image()
	for off, val := range rg.shadow {
		if got := binary.LittleEndian.Uint32(img[off:]); got != val {
			diffs++
		}
	}
	rg.want(diffs == 0, "acked words lost diff=%d", diffs)
	return img, diffs
}

// dialZombie has a replica that learned the promoted epoch dial the
// ex-primary, whose shipper stays reachable, and returns the zombie's
// refusal (nil: it accepted the hello).
func (rg *promotionRig) dialZombie(epoch uint32) error {
	r2, err := logship.NewReplica(rg.dial, promoSegSize)
	must(err, "fence replica")
	r2.SetEpoch(epoch)
	refusal := r2.Connect()
	if refusal == nil {
		r2.Kill()
	}
	return refusal
}

// want records a failed check unless ok; the outcome line reports the
// first.
func (rg *promotionRig) want(ok bool, format string, args ...any) {
	if !ok && rg.note == "" {
		rg.note = fmt.Sprintf(format, args...)
	}
}

// report is the outcome line: plan, seed, verdict and kill phase, the
// template's own fields, then the first failed check.
func (rg *promotionRig) report(format string, a ...any) (outcome, uint64) {
	verdict := "RECOVERED"
	if rg.note != "" {
		verdict = "FAIL"
	}
	line := fmt.Sprintf("plan=%s seed=%#x verdict=%s phase=%s ", rg.t.name, rg.plan.Seed, verdict, rg.killPhase) +
		fmt.Sprintf(format, a...)
	if rg.note != "" {
		line += " err=" + rg.note
	}
	return outcome{line: line, ok: rg.note == ""}, rg.sys.Elapsed()
}
