package crashtest

import (
	"errors"

	"lvm/internal/fault"
	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/wire"
)

// runLeaseExpiry is the automatic-failure-detection analogue of
// runFailover. The primary renews a serving lease by heartbeat; it then
// "dies" with an unshipped tail, the manual clock runs the lease out,
// and the standby's monitor — not an operator — authorizes the
// promotion. The handshake is still killed at the phase
// the seed selects and resumed. The verdict additionally demands:
//
//   - promotion REFUSES while the lease is current (no split-brain by
//     eagerness: a slow primary is not a dead primary until the TTL
//     says so);
//   - the dead primary self-demotes: its holder refuses to renew after
//     the gap, so even a resumed zombie process stops claiming writes;
//   - the resumed zombie is refused loudly: a promoted-generation
//     subscriber dialing it gets ErrFenced, not a silent hangup;
//   - bounded loss is measured exactly: head − watermark, the records
//     the dead primary logged but never shipped. Acked state survives
//     byte-for-byte.
func runLeaseExpiry(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 48
	if short {
		txns = 16
	}
	rg := newPromotionRig(t, plan, true)
	defer rg.ship.Close()
	rg.commitAcked(txns, true)
	rg.beat()
	rg.shipHalfTxn()
	watermark := rg.recs
	rg.beat()
	rg.awaitBeats()
	head := rg.unshippedTail()

	// The lease is still current: automatic promotion must refuse. A
	// standby that promotes early forks the timeline; ErrHeld is the
	// safety half of the protocol.
	_, err := rg.au.Promote(rg.r, "standby", head, lease.PromoteHooks{})
	rg.want(errors.Is(err, lease.ErrHeld), "promotion under a live lease = %v, want ErrHeld", err)
	rg.want(!rg.mon.Expired(), "monitor expired while beats were current")

	// The primary dies: no more beats, and the clock runs the TTL out.
	rg.clk.Advance(leaseTTL + 1)
	rg.want(rg.mon.Expired(), "monitor not expired after the TTL ran out")
	// Self-demotion: the resumed zombie's own holder measures the same
	// gap on its own clock and refuses to renew, permanently.
	_, renewed := rg.holder.Renew(rg.ship.LeaseEvidence())
	rg.want(!renewed && rg.holder.Lost(), "dead primary's holder renewed across the expiry gap")

	// The standby promotes on the monitor's word alone, with the
	// handshake killed at the seed's phase and resumed.
	res := rg.promoteThroughKill(head)
	rg.want(res.Watermark == watermark, "watermark=%d want %d", res.Watermark, watermark)
	rg.want(res.Lost == head-watermark, "lost=%d want %d", res.Lost, head-watermark)
	rg.checkGrants(res)
	h, held := rg.au.Holder()
	rg.want(h == "standby" && held, "lease holder=%q/%v after promotion", h, held)
	rg.want(rg.r.Stats.RolledBack.Load() != 0, "half-replicated transaction was never rolled back")
	_, diffs := rg.checkAcked()

	// The resumed zombie is refused loudly: a promoted-generation
	// subscriber dialing the old primary's shipper learns the refusal is
	// epoch fencing (ErrFenced), not a flaky network.
	refusal := rg.dialZombie(res.Grant.Epoch)
	rg.want(errors.Is(refusal, logship.ErrFenced), "zombie refusal = %v, want ErrFenced", refusal)
	fenced := rg.ship.Stats.FencedHellos.Load()
	rg.want(fenced != 0, "zombie shipper did not count the fenced hello")
	return rg.report("watermark=%d head=%d lost=%d beats=%d epoch=%d fenced=%d diff=%d",
		res.Watermark, head, res.Lost, rg.mon.Beats(), res.Grant.Epoch, fenced, diffs)
}

// runLeasePartition models the stall half of the safety argument: the
// primary does not die, its renewal loop pauses — a GC-length stall, a
// SIGSTOP that lifts. (The other half, a network partition where the
// loop keeps running but messages die, is runLeaseDrop.) The standby
// promotes when the lease runs out; the old primary then comes back
// and tries to carry on. The verdict demands exactly one writable
// primary at every step:
//
//   - the resumed holder's own renewal fails (it measures the same gap
//     on its own clock) — it demotes itself before accepting a write;
//   - its stale grant no longer validates and its lease renewal against
//     the authority answers ErrNotHolder;
//   - its late heartbeat reaching the standby is dropped as stale, not
//     allowed to re-arm the superseded deadline;
//   - nothing was in flight (everything acked before the pause), so the
//     measured loss is exactly zero.
func runLeasePartition(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 32
	if short {
		txns = 12
	}
	rg := newPromotionRig(t, plan, true)
	defer rg.ship.Close()
	// Fully-acked workload: every transaction ships and acks before the
	// pause, so a correct failover loses nothing at all.
	rg.commitAcked(txns, false)
	rg.awaitBeats()

	// The pause: the clock advances past the TTL with no renewals. The
	// primary process is alive the whole time — it just can't prove it.
	rg.clk.Advance(leaseTTL + 1)
	rg.want(rg.mon.Expired(), "monitor not expired after the pause")
	res := rg.promoteThroughKill(rg.recs)
	rg.want(res.Lost == 0, "lost=%d want 0: everything was acked before the pause", res.Lost)
	rg.want(res.Watermark == rg.recs, "watermark=%d want %d", res.Watermark, rg.recs)

	// The pause heals; the old primary resumes mid-heartbeat-loop.
	// Exactly one writable primary, enforced from three directions:
	_, renewed := rg.holder.Renew(rg.ship.LeaseEvidence())
	rg.want(!renewed && rg.holder.Lost(), "resumed primary renewed across the pause: two writable primaries")
	_, err := rg.au.Renew("primary", rg.grant)
	rg.want(errors.Is(err, lease.ErrNotHolder), "authority accepted the zombie's renewal: %v", err)
	rg.checkGrants(res)
	// Its late beat — queued before the pause, delivered after — must
	// not re-arm the superseded generation's deadline.
	rg.mon.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: res.Grant.Epoch, Seq: 1, TTL: leaseTTL})
	rg.mon.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: rg.grant.Epoch, Seq: 99, TTL: leaseTTL})
	rg.want(rg.mon.Stale() == 1, "late zombie beat not classified stale (stale=%d)", rg.mon.Stale())
	rg.want(rg.mon.Epoch() == res.Grant.Epoch, "monitor epoch=%d want the promoted %d", rg.mon.Epoch(), res.Grant.Epoch)

	// Zero loss means byte-exact: every acked word survives.
	_, diffs := rg.checkAcked()
	// And the refused zombie is told why.
	refusal := rg.dialZombie(res.Grant.Epoch)
	rg.want(errors.Is(refusal, logship.ErrFenced), "zombie refusal = %v, want ErrFenced", refusal)
	return rg.report("watermark=%d lost=%d stale=%d epoch=%d diff=%d",
		res.Watermark, res.Lost, rg.mon.Stale(), res.Grant.Epoch, diffs)
}

// runLeaseDrop models the partition half of the safety argument — the
// failure shape runLeasePartition cannot see: the primary's renewal
// loop stays perfectly healthy, only its messages die. Without
// delivery evidence this is the split-brain hole — the holder happily
// measures its own loop-scheduling gap while the standby hears
// silence, expires, and promotes: two writable primaries. With it,
// the holder demands that some observer acknowledged a beat issued
// within the last TTL, so a cut-off primary demotes itself on the
// same tick schedule the standby promotes on. The verdict demands:
//
//   - renewals keep succeeding while evidence is current, and
//     promotion refuses (ErrHeld) at every one of those steps;
//   - the cut-off holder demotes by the evidence rule exactly one TTL
//     after its last acknowledged beat — and at no step is the
//     monitor expired while the holder still renews;
//   - the standby then promotes with zero loss (everything acked
//     before the cut), the stale grant stops validating, and the
//     zombie's shipper refuses a promoted-generation subscriber with
//     ErrFenced.
func runLeaseDrop(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 32
	if short {
		txns = 12
	}
	rg := newPromotionRig(t, plan, true)
	defer rg.ship.Close()
	// Fully-acked workload: everything ships and acks before the cut,
	// so a correct failover loses nothing at all.
	rg.commitAcked(txns, false)
	rg.awaitBeats()
	// Pin beat 1's acknowledgement before the cut: that ack, dated by
	// its issue tick (0), is all the evidence the cut-off holder's
	// renewals will live on for exactly one TTL. The manual clock does
	// not move while we spin, so pinning the ack before any advance
	// makes every later renewal verdict cycle-deterministic.
	if !waitFor(func() bool { _, acked := rg.ship.LeaseEvidence(); return acked >= 1 }) {
		setupFail("beat 1 never acknowledged")
	}

	// The partition: the connection dies; the renewal loop does not.
	rg.r.Kill()

	// The loop keeps ticking at TTL/4 — the stall rule never fires —
	// but its beats reach nobody and earn no acks, so the evidence rule
	// runs out one TTL after the last acked issue tick (0): the renewal
	// at tick 1250, step 5. The monitor armed at receipt (also tick 0)
	// plus the TTL and expires past tick 1000 — the same step. At no
	// step may the monitor be expired while the holder still renews.
	demoteStep := 0
	for step := 1; step <= 6 && demoteStep == 0; step++ {
		rg.clk.Advance(leaseTTL / 4)
		hb, ok := rg.holder.Renew(rg.ship.LeaseEvidence())
		if !ok {
			demoteStep = step
			rg.want(rg.holder.Lost(), "renewal refused at step %d but holder not lost", step)
			break
		}
		_ = rg.ship.Heartbeat(hb) //errgate:ok — broadcast into the partition; non-delivery is the thing under test
		rg.want(!rg.mon.Expired(), "monitor expired at step %d while the holder still renews: split-brain window", step)
		_, err := rg.au.Promote(rg.r, "standby", rg.recs, lease.PromoteHooks{})
		rg.want(errors.Is(err, lease.ErrHeld), "promotion at step %d = %v, want ErrHeld", step, err)
	}
	rg.want(demoteStep == 5, "cut-off holder demoted at step %d, want 5 (one TTL after the last acked beat)", demoteStep)
	rg.want(rg.mon.Expired(), "monitor not expired after the holder gave up")

	// The standby promotes, with the handshake killed at the seed's
	// phase and resumed.
	res := rg.promoteThroughKill(rg.recs)
	rg.want(res.Lost == 0, "lost=%d want 0: everything was acked before the cut", res.Lost)
	rg.want(res.Watermark == rg.recs, "watermark=%d want %d", res.Watermark, rg.recs)

	// Exactly one writable primary, from the remaining directions:
	_, err := rg.au.Renew("primary", rg.grant)
	rg.want(errors.Is(err, lease.ErrNotHolder), "authority accepted the zombie's renewal: %v", err)
	rg.checkGrants(res)
	h, held := rg.au.Holder()
	rg.want(h == "standby" && held, "lease holder=%q/%v after promotion", h, held)

	// Zero loss means byte-exact: every acked word survives.
	_, diffs := rg.checkAcked()
	// And the refused zombie is told why.
	refusal := rg.dialZombie(res.Grant.Epoch)
	rg.want(errors.Is(refusal, logship.ErrFenced), "zombie refusal = %v, want ErrFenced", refusal)
	return rg.report("demote_step=%d watermark=%d lost=%d beats=%d epoch=%d diff=%d",
		demoteStep, res.Watermark, res.Lost, rg.mon.Beats(), res.Grant.Epoch, diffs)
}
