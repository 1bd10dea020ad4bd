package crashtest

import (
	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/fault"
	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// runFailover proves the promotion protocol under fire: a primary ships
// a marker-protocol workload to a tracked replica, establishes an exact
// acked watermark (including a half-replicated transaction), then writes
// an unshipped tail and "dies". The promotion handshake is killed at the
// phase the seed selects (freeze/activate are candidate-side crashes,
// prepare/commit coordinator-side), then simply run again — Promote is
// idempotent. The verdict demands:
//
//   - no acked record lost: the promoted watermark equals the exact acked
//     sequence and every acked transaction's writes survive on the
//     replica image (the half-replicated tail rolled back to its last
//     transaction boundary);
//   - measured bounded loss: exactly head − watermark, the records the
//     dead primary logged but never shipped;
//   - no split-brain: the old grant stops validating the moment the new
//     one commits, and a replica of the promoted generation that dials
//     the zombie ex-primary is refused on epoch alone;
//   - the re-seeded primary works: Takeover from the replica image, a
//     fresh replica converges on it byte-identical via the wire-v2
//     snapshot catch-up.
func runFailover(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 48
	if short {
		txns = 16
	}
	rg := newPromotionRig(t, plan, false)
	defer rg.ship.Close()
	side := "coordinator"
	if rg.killPhase == lease.PhaseFreeze || rg.killPhase == lease.PhaseActivate {
		side = "candidate"
	}

	// Acked phase: complete transactions, fully shipped and acknowledged,
	// then the half-replicated one.
	rg.commitAcked(txns, true)
	rg.shipHalfTxn()
	watermark := rg.recs
	head := rg.unshippedTail()

	// The primary is now "dead" (it writes nothing more), but its shipper
	// stays reachable — the zombie the fencing must refuse.
	res := rg.promoteThroughKill(head)
	rg.want(res.Watermark == watermark, "watermark=%d want %d", res.Watermark, watermark)
	rg.want(res.Lost == head-watermark, "lost=%d want %d", res.Lost, head-watermark)
	rg.checkGrants(res)
	// The rollback ran during the first (killed) attempt — PromoteResult
	// reports the resume's count, the replica counter the total.
	rolled := rg.r.Stats.RolledBack.Load()
	rg.want(rolled != 0, "half-replicated transaction was never rolled back")
	// Acked state must survive exactly: complete transactions present,
	// the half-replicated one rolled back.
	img, diffs := rg.checkAcked()

	// Zombie fencing: a replica that learned the promoted epoch dials the
	// ex-primary; the zombie's listener must refuse the hello outright.
	refusal := rg.dialZombie(res.Grant.Epoch)
	rg.want(refusal != nil, "zombie accepted a promoted-generation replica")
	fenced := rg.ship.Stats.FencedHellos.Load()
	rg.want(fenced != 0, "zombie shipper did not count the fenced hello")

	// Re-seed a primary from the promoted image and prove a fresh replica
	// converges on it (snapshot catch-up: its ack floor is below the
	// watermark the new log starts at).
	ln2, dial2 := logship.NewMemTransport()
	pr, err := logship.Takeover(img, res.Grant.Epoch, res.Watermark, ln2, logship.TakeoverConfig{
		Disk: ramdisk.New(),
		Ship: logship.Config{FlushRecords: 8},
	})
	must(err, "takeover")
	defer pr.Ship.Close()
	got := pr.Ship.Epoch()
	rg.want(got == res.Grant.Epoch, "takeover shipper epoch=%d want %d", got, res.Grant.Epoch)
	for i := 0; i < 6; i++ {
		rg.seq++
		pr.P.Store32(pr.Base, rg.seq)
		for j := 0; j < 3; j++ {
			off := wordOff(rg.wr, promoSegSize)
			pr.P.Store32(pr.Base+core.Addr(off), uint32(rg.wr.Next()))
		}
		pr.P.Store32(pr.Base, rg.seq|recovery.MarkerCommit)
	}
	pr.Sys.Sync()
	must(pr.Ship.Flush(), "takeover flush")
	r3, err := logship.NewReplica(dial2, promoSegSize)
	must(err, "converge replica")
	r3.TrackMarkers(markerLimit)
	must(r3.Connect(), "converge connect")
	must(pr.Ship.ReleaseShip(releaseWait), "takeover release")
	r3.Kill()
	err = dsm.Verify(pr.Seg, r3.Consumer(), promoSegSize)
	rg.want(err == nil, "takeover replica diverged: %v", err)
	return rg.report("side=%s watermark=%d head=%d lost=%d rolled=%d epoch=%d fenced=%d diff=%d",
		side, res.Watermark, head, res.Lost, rolled, res.Grant.Epoch, fenced, diffs)
}
