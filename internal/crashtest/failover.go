package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/fault"
	"lvm/internal/logship"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// releaseWait bounds the replication-ack waits. A generous bound keeps
// slow CI machines from flaking; on success the wait leaves no trace in
// the outcome line, so determinism is unaffected.
const releaseWait = 10 * time.Second

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
//
// No wall-clock state reaches the outcome line, so both executions of a
// plan must match byte-for-byte.
func runFailover(t template, plan fault.Plan, short bool) (outcome, uint64) {
	const segSize = 8 * core.PageSize
	const markerLimit = 16
	txns := 48
	if short {
		txns = 16
	}
	phases := []string{logship.PhaseFreeze, logship.PhasePrepare, logship.PhaseCommit, logship.PhaseActivate}
	killPhase := phases[plan.CrashAtCycle%uint64(len(phases))]
	side := "coordinator"
	if killPhase == logship.PhaseFreeze || killPhase == logship.PhaseActivate {
		side = "candidate"
	}

	ln, dial := logship.NewMemTransport()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(sys, p, segSize, 512)
	if err != nil {
		return failf(plan, "producer err=%v", err), 0
	}
	ship := logship.NewShipper(sys, prod.Segment(), prod.LogSegment(), ln, logship.Config{FlushRecords: 8})
	defer ship.Close()
	r, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "replica err=%v", err), 0
	}
	r.TrackMarkers(markerLimit)
	if err := r.Connect(); err != nil {
		return failf(plan, "connect err=%v", err), 0
	}

	wr := fault.NewRNG(plan.Seed + 1)
	shadow := make(map[uint32]uint32) // acked complete-transaction state
	recs := uint64(0)
	seq := uint32(0)
	commitTxn := func(acked bool) {
		seq++
		prod.Write(0, seq)
		recs++
		n := 1 + wr.Intn(t.maxBatch)
		for j := 0; j < n; j++ {
			off := uint32(markerLimit) + uint32(wr.Intn((segSize-markerLimit)/4))*4
			val := uint32(wr.Next())
			prod.Write(off, val)
			if acked {
				shadow[off] = val
			}
			recs++
		}
		prod.Write(0, seq|recovery.MarkerCommit)
		recs++
	}

	// Acked phase: complete transactions, fully shipped and acknowledged.
	for i := 0; i < txns; i++ {
		commitTxn(true)
		if i%6 == 5 {
			if err := ship.Flush(); err != nil {
				return failf(plan, "flush err=%v", err), 0
			}
		}
	}
	if err := ship.ReleaseShip(releaseWait); err != nil {
		return failf(plan, "release err=%v", err), 0
	}

	// Half-replicated transaction: begin marker plus a few stores reach
	// the replica (batches seal at record counts, not transaction
	// boundaries) but the commit marker never ships. Promotion must roll
	// these back.
	seq++
	prod.Write(0, seq)
	recs++
	partial := 1 + int(plan.Seed%3)
	for j := 0; j < partial; j++ {
		off := uint32(markerLimit) + uint32(wr.Intn((segSize-markerLimit)/4))*4
		prod.Write(off, uint32(wr.Next()))
		recs++
	}
	if err := ship.Flush(); err != nil {
		return failf(plan, "flush err=%v", err), 0
	}
	if err := ship.ReleaseShip(releaseWait); err != nil {
		return failf(plan, "release err=%v", err), 0
	}
	watermark := recs

	// Unshipped tail: the dead primary's head runs ahead of the acked
	// watermark by exactly these records — the measured loss bound. The
	// acked shadow must not see them: they are the loss.
	for i := 0; i < 4+int(plan.Seed%5); i++ {
		commitTxn(false)
	}
	head := recs

	// The primary is now "dead" (it writes nothing more), but its shipper
	// stays reachable — the zombie the fencing must refuse.
	a := &logship.Authority{Cur: logship.Grant{Epoch: 1, Token: 0x1D}}
	oldGrant := a.Cur
	errKill := errors.New("crashtest: simulated kill")
	_, err = logship.Promote(a, r, "standby", head, logship.PromoteHooks{
		After: func(ph string) error {
			if ph == killPhase {
				return errKill
			}
			return nil
		},
	})
	if !errors.Is(err, errKill) {
		return failf(plan, "kill at %s not delivered: err=%v", killPhase, err), 0
	}
	res, err := logship.Promote(a, r, "standby", head, logship.PromoteHooks{})
	if err != nil {
		return failf(plan, "promotion resume err=%v", err), 0
	}

	verdict := "RECOVERED"
	note := ""
	fail := func(f string, args ...any) {
		if verdict == "RECOVERED" {
			verdict, note = "FAIL", fmt.Sprintf(f, args...)
		}
	}
	if res.Watermark != watermark {
		fail("watermark=%d want %d", res.Watermark, watermark)
	}
	if res.Lost != head-watermark {
		fail("lost=%d want %d", res.Lost, head-watermark)
	}
	if a.Validate(oldGrant) {
		fail("stale grant still validates: split-brain")
	}
	if !a.Validate(res.Grant) {
		fail("promoted grant does not validate")
	}
	// The rollback ran during the first (killed) attempt — PromoteResult
	// reports the resume's count, the replica counter the total.
	rolled := r.Stats.RolledBack.Load()
	if rolled == 0 {
		fail("half-replicated transaction was never rolled back")
	}

	// Acked state must survive exactly: complete transactions present,
	// the half-replicated one rolled back.
	img := r.Image()
	diffs := 0
	for off, val := range shadow {
		if got := binary.LittleEndian.Uint32(img[off:]); got != val {
			diffs++
		}
	}
	if diffs != 0 {
		fail("acked words lost diff=%d", diffs)
	}

	// Zombie fencing: a replica that learned the promoted epoch dials the
	// ex-primary; the zombie's listener must refuse the hello outright.
	r2, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "fence replica err=%v", err), 0
	}
	r2.SetEpoch(res.Grant.Epoch)
	fenceErr := r2.Connect()
	if fenceErr == nil {
		r2.Kill()
		fail("zombie accepted a promoted-generation replica")
	}
	fenced := ship.Stats.FencedHellos.Load()
	if fenced == 0 {
		fail("zombie shipper did not count the fenced hello")
	}

	// Re-seed a primary from the promoted image and prove a fresh replica
	// converges on it (snapshot catch-up: its ack floor is below the
	// watermark the new log starts at).
	ln2, dial2 := logship.NewMemTransport()
	pr, err := logship.Takeover(img, res.Grant, res.Watermark, ln2, logship.TakeoverConfig{
		Disk: ramdisk.New(),
		Ship: logship.Config{FlushRecords: 8},
	})
	if err != nil {
		return failf(plan, "takeover err=%v", err), 0
	}
	defer pr.Ship.Close()
	if got := pr.Ship.Epoch(); got != res.Grant.Epoch {
		fail("takeover shipper epoch=%d want %d", got, res.Grant.Epoch)
	}
	for i := 0; i < 6; i++ {
		seq++
		pr.P.Store32(pr.Base, seq)
		for j := 0; j < 3; j++ {
			off := uint32(markerLimit) + uint32(wr.Intn((segSize-markerLimit)/4))*4
			pr.P.Store32(pr.Base+core.Addr(off), uint32(wr.Next()))
		}
		pr.P.Store32(pr.Base, seq|recovery.MarkerCommit)
	}
	pr.Sys.Sync()
	if err := pr.Ship.Flush(); err != nil {
		return failf(plan, "takeover flush err=%v", err), 0
	}
	r3, err := logship.NewReplica(dial2, segSize)
	if err != nil {
		return failf(plan, "converge replica err=%v", err), 0
	}
	r3.TrackMarkers(markerLimit)
	if err := r3.Connect(); err != nil {
		return failf(plan, "converge connect err=%v", err), 0
	}
	if err := pr.Ship.ReleaseShip(releaseWait); err != nil {
		return failf(plan, "takeover release err=%v", err), 0
	}
	r3.Kill()
	if err := dsm.Verify(pr.Seg, r3.Consumer(), segSize); err != nil {
		fail("takeover replica diverged: %v", err)
	}

	line := fmt.Sprintf(
		"plan=%s seed=%#x verdict=%s phase=%s side=%s watermark=%d head=%d lost=%d rolled=%d epoch=%d fenced=%d diff=%d",
		t.name, plan.Seed, verdict, killPhase, side, res.Watermark, head, res.Lost,
		rolled, res.Grant.Epoch, fenced, diffs)
	if note != "" {
		line += " err=" + note
	}
	return outcome{line: line, ok: verdict == "RECOVERED"}, sys.Elapsed()
}
