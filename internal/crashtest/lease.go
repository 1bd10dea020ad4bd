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
	"lvm/internal/wire"
)

// leaseTTL is the serving-lease TTL in manual-clock ticks. The clock
// only moves when a scenario advances it, so every deadline comparison
// is cycle-deterministic: both executions of a plan see identical
// expiry decisions regardless of wall-clock scheduling.
const leaseTTL = 1000

// waitBeats blocks until the monitor has observed n heartbeats. The
// wait is wall-clock (frame delivery is asynchronous) but leaves no
// trace in the outcome line; the count itself is deterministic because
// beats are only broadcast while the subscription queue is drained.
func waitBeats(m *lease.Monitor, n uint64) bool {
	deadline := time.Now().Add(releaseWait)
	for m.Beats() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// waitAck blocks until the shipper's delivery evidence covers beat seq
// n. Wall-clock like waitBeats, and equally trace-free: the manual
// clock does not move while we spin, so pinning the ack before any
// advance makes every later renewal verdict cycle-deterministic.
func waitAck(ship *logship.Shipper, n uint64) bool {
	deadline := time.Now().Add(releaseWait)
	for {
		if _, acked := ship.LeaseEvidence(); acked >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

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
	const segSize = 8 * core.PageSize
	const markerLimit = 16
	txns := 48
	if short {
		txns = 16
	}
	phases := []string{logship.PhaseFreeze, logship.PhasePrepare, logship.PhaseCommit, logship.PhaseActivate}
	killPhase := phases[plan.CrashAtCycle%uint64(len(phases))]

	clk := lease.NewManual(0)
	au := lease.NewAuthority(&logship.Authority{}, clk, leaseTTL)
	grant, err := au.Acquire("primary")
	if err != nil {
		return failf(plan, "acquire err=%v", err), 0
	}
	holder := lease.NewHolder(clk, leaseTTL, grant.Epoch)
	mon := lease.NewMonitor(clk, leaseTTL)

	ln, dial := logship.NewMemTransport()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(sys, p, segSize, 512)
	if err != nil {
		return failf(plan, "producer err=%v", err), 0
	}
	ship := logship.NewShipper(sys, prod.Segment(), prod.LogSegment(), ln,
		logship.Config{FlushRecords: 8, Epoch: grant.Epoch})
	defer ship.Close()
	r, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "replica err=%v", err), 0
	}
	r.TrackMarkers(markerLimit)
	r.TrackLease(mon.Observe)
	if err := r.Connect(); err != nil {
		return failf(plan, "connect err=%v", err), 0
	}

	// beat renews the lease and broadcasts it. Called only at points
	// where the subscription queue is drained (post-connect, post-
	// release), so the non-blocking enqueue never drops and the beat
	// count stays deterministic. Evidence is gathered (and joiners
	// admitted) before each renewal, as the real shard loop does; under
	// the frozen manual clock the renewal verdict cannot depend on how
	// many acks have raced back yet, so determinism holds.
	beats := uint64(0)
	beat := func() error {
		engaged, acked := ship.LeaseEvidence()
		b, ok := holder.Renew(engaged, acked)
		if !ok {
			return fmt.Errorf("holder lost the lease mid-workload")
		}
		if err := ship.Heartbeat(b); err != nil {
			return err
		}
		beats++
		return nil
	}
	if err := beat(); err != nil {
		return failf(plan, "beat err=%v", err), 0
	}

	wr := fault.NewRNG(plan.Seed + 1)
	shadow := make(map[uint32]uint32)
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
	if err := beat(); err != nil {
		return failf(plan, "beat err=%v", err), 0
	}

	// Half-replicated transaction (the commit marker never ships) —
	// promotion must roll it back.
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
	if err := beat(); err != nil {
		return failf(plan, "beat err=%v", err), 0
	}
	if !waitBeats(mon, beats) {
		return failf(plan, "monitor saw %d/%d beats", mon.Beats(), beats), 0
	}

	// Unshipped tail: the dead primary's head runs ahead of the acked
	// watermark by exactly these records — the measured loss bound.
	for i := 0; i < 4+int(plan.Seed%5); i++ {
		commitTxn(false)
	}
	head := recs

	verdict := "RECOVERED"
	note := ""
	fail := func(f string, args ...any) {
		if verdict == "RECOVERED" {
			verdict, note = "FAIL", fmt.Sprintf(f, args...)
		}
	}

	// The lease is still current: automatic promotion must refuse. A
	// standby that promotes early forks the timeline; ErrHeld is the
	// safety half of the protocol.
	if _, err := au.AutoPromote(r, "standby", head, logship.PromoteHooks{}); !errors.Is(err, lease.ErrHeld) {
		fail("promotion under a live lease = %v, want ErrHeld", err)
	}
	if mon.Expired() {
		fail("monitor expired while beats were current")
	}

	// The primary dies: no more beats, and the clock runs the TTL out.
	clk.Advance(leaseTTL + 1)
	if !mon.Expired() {
		fail("monitor not expired after the TTL ran out")
	}
	// Self-demotion: the resumed zombie's own holder measures the same
	// gap on its own clock and refuses to renew, permanently.
	engaged, acked := ship.LeaseEvidence()
	if _, ok := holder.Renew(engaged, acked); ok || !holder.Lost() {
		fail("dead primary's holder renewed across the expiry gap")
	}

	// The standby promotes on the monitor's word alone, with the
	// handshake killed at the seed's phase and resumed.
	errKill := errors.New("crashtest: simulated kill")
	_, err = au.AutoPromote(r, "standby", head, logship.PromoteHooks{
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
	res, err := au.AutoPromote(r, "standby", head, logship.PromoteHooks{})
	if err != nil {
		return failf(plan, "promotion resume err=%v", err), 0
	}

	if res.Watermark != watermark {
		fail("watermark=%d want %d", res.Watermark, watermark)
	}
	if res.Lost != head-watermark {
		fail("lost=%d want %d", res.Lost, head-watermark)
	}
	if au.Epochs.Validate(grant) {
		fail("stale grant still validates: split-brain")
	}
	if !au.Epochs.Validate(res.Grant) {
		fail("promoted grant does not validate")
	}
	if h, ok := au.Holder(); h != "standby" || !ok {
		fail("lease holder=%q/%v after promotion", h, ok)
	}
	if r.Stats.RolledBack.Load() == 0 {
		fail("half-replicated transaction was never rolled back")
	}
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

	// The resumed zombie is refused loudly: a promoted-generation
	// subscriber dialing the old primary's shipper learns the refusal is
	// epoch fencing (ErrFenced), not a flaky network.
	r2, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "fence replica err=%v", err), 0
	}
	r2.SetEpoch(res.Grant.Epoch)
	if ferr := r2.Connect(); !errors.Is(ferr, logship.ErrFenced) {
		r2.Kill()
		fail("zombie refusal = %v, want ErrFenced", ferr)
	}
	fenced := ship.Stats.FencedHellos.Load()
	if fenced == 0 {
		fail("zombie shipper did not count the fenced hello")
	}

	line := fmt.Sprintf(
		"plan=%s seed=%#x verdict=%s phase=%s watermark=%d head=%d lost=%d beats=%d epoch=%d fenced=%d diff=%d",
		t.name, plan.Seed, verdict, killPhase, res.Watermark, head, res.Lost,
		mon.Beats(), res.Grant.Epoch, fenced, diffs)
	if note != "" {
		line += " err=" + note
	}
	return outcome{line: line, ok: verdict == "RECOVERED"}, sys.Elapsed()
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
	const segSize = 8 * core.PageSize
	const markerLimit = 16
	txns := 32
	if short {
		txns = 12
	}
	phases := []string{logship.PhaseFreeze, logship.PhasePrepare, logship.PhaseCommit, logship.PhaseActivate}
	killPhase := phases[plan.CrashAtCycle%uint64(len(phases))]

	clk := lease.NewManual(0)
	au := lease.NewAuthority(&logship.Authority{}, clk, leaseTTL)
	grant, err := au.Acquire("primary")
	if err != nil {
		return failf(plan, "acquire err=%v", err), 0
	}
	holder := lease.NewHolder(clk, leaseTTL, grant.Epoch)
	mon := lease.NewMonitor(clk, leaseTTL)

	ln, dial := logship.NewMemTransport()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(sys, p, segSize, 512)
	if err != nil {
		return failf(plan, "producer err=%v", err), 0
	}
	ship := logship.NewShipper(sys, prod.Segment(), prod.LogSegment(), ln,
		logship.Config{FlushRecords: 8, Epoch: grant.Epoch})
	defer ship.Close()
	r, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "replica err=%v", err), 0
	}
	r.TrackMarkers(markerLimit)
	r.TrackLease(mon.Observe)
	if err := r.Connect(); err != nil {
		return failf(plan, "connect err=%v", err), 0
	}
	engaged, acked := ship.LeaseEvidence()
	b, ok := holder.Renew(engaged, acked)
	if !ok {
		return failf(plan, "first renewal refused"), 0
	}
	if err := ship.Heartbeat(b); err != nil {
		return failf(plan, "beat err=%v", err), 0
	}

	// Fully-acked workload: every transaction ships and acks before the
	// pause, so a correct failover loses nothing at all.
	wr := fault.NewRNG(plan.Seed + 1)
	shadow := make(map[uint32]uint32)
	recs := uint64(0)
	seq := uint32(0)
	for i := 0; i < txns; i++ {
		seq++
		prod.Write(0, seq)
		recs++
		n := 1 + wr.Intn(t.maxBatch)
		for j := 0; j < n; j++ {
			off := uint32(markerLimit) + uint32(wr.Intn((segSize-markerLimit)/4))*4
			val := uint32(wr.Next())
			prod.Write(off, val)
			shadow[off] = val
			recs++
		}
		prod.Write(0, seq|recovery.MarkerCommit)
		recs++
	}
	if err := ship.ReleaseShip(releaseWait); err != nil {
		return failf(plan, "release err=%v", err), 0
	}
	if !waitBeats(mon, 1) {
		return failf(plan, "monitor saw no beat"), 0
	}

	verdict := "RECOVERED"
	note := ""
	fail := func(f string, args ...any) {
		if verdict == "RECOVERED" {
			verdict, note = "FAIL", fmt.Sprintf(f, args...)
		}
	}

	// The pause: the clock advances past the TTL with no renewals. The
	// primary process is alive the whole time — it just can't prove it.
	clk.Advance(leaseTTL + 1)
	if !mon.Expired() {
		fail("monitor not expired after the pause")
	}
	errKill := errors.New("crashtest: simulated kill")
	_, err = au.AutoPromote(r, "standby", recs, logship.PromoteHooks{
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
	res, err := au.AutoPromote(r, "standby", recs, logship.PromoteHooks{})
	if err != nil {
		return failf(plan, "promotion resume err=%v", err), 0
	}
	if res.Lost != 0 {
		fail("lost=%d want 0: everything was acked before the pause", res.Lost)
	}
	if res.Watermark != recs {
		fail("watermark=%d want %d", res.Watermark, recs)
	}

	// The pause heals; the old primary resumes mid-heartbeat-loop.
	// Exactly one writable primary, enforced from three directions:
	eng, ack := ship.LeaseEvidence()
	if _, renewed := holder.Renew(eng, ack); renewed || !holder.Lost() {
		fail("resumed primary renewed across the pause: two writable primaries")
	}
	if _, err := au.Renew("primary", grant); !errors.Is(err, lease.ErrNotHolder) {
		fail("authority accepted the zombie's renewal: %v", err)
	}
	if au.Epochs.Validate(grant) {
		fail("stale grant still validates: split-brain")
	}
	if !au.Epochs.Validate(res.Grant) {
		fail("promoted grant does not validate")
	}
	// Its late beat — queued before the pause, delivered after — must
	// not re-arm the superseded generation's deadline.
	mon.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: res.Grant.Epoch, Seq: 1, TTL: leaseTTL})
	mon.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: grant.Epoch, Seq: 99, TTL: leaseTTL})
	if mon.Stale() != 1 {
		fail("late zombie beat not classified stale (stale=%d)", mon.Stale())
	}
	if mon.Epoch() != res.Grant.Epoch {
		fail("monitor epoch=%d want the promoted %d", mon.Epoch(), res.Grant.Epoch)
	}

	// Zero loss means byte-exact: every acked word survives.
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
	// And the refused zombie is told why.
	r2, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "fence replica err=%v", err), 0
	}
	r2.SetEpoch(res.Grant.Epoch)
	if ferr := r2.Connect(); !errors.Is(ferr, logship.ErrFenced) {
		r2.Kill()
		fail("zombie refusal = %v, want ErrFenced", ferr)
	}

	line := fmt.Sprintf(
		"plan=%s seed=%#x verdict=%s phase=%s watermark=%d lost=%d stale=%d epoch=%d diff=%d",
		t.name, plan.Seed, verdict, killPhase, res.Watermark, res.Lost,
		mon.Stale(), res.Grant.Epoch, diffs)
	if note != "" {
		line += " err=" + note
	}
	return outcome{line: line, ok: verdict == "RECOVERED"}, sys.Elapsed()
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
	const segSize = 8 * core.PageSize
	const markerLimit = 16
	txns := 32
	if short {
		txns = 12
	}
	phases := []string{logship.PhaseFreeze, logship.PhasePrepare, logship.PhaseCommit, logship.PhaseActivate}
	killPhase := phases[plan.CrashAtCycle%uint64(len(phases))]

	clk := lease.NewManual(0)
	au := lease.NewAuthority(&logship.Authority{}, clk, leaseTTL)
	grant, err := au.Acquire("primary")
	if err != nil {
		return failf(plan, "acquire err=%v", err), 0
	}
	holder := lease.NewHolder(clk, leaseTTL, grant.Epoch)
	mon := lease.NewMonitor(clk, leaseTTL)

	ln, dial := logship.NewMemTransport()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(sys, p, segSize, 512)
	if err != nil {
		return failf(plan, "producer err=%v", err), 0
	}
	ship := logship.NewShipper(sys, prod.Segment(), prod.LogSegment(), ln,
		logship.Config{FlushRecords: 8, Epoch: grant.Epoch})
	defer ship.Close()
	r, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "replica err=%v", err), 0
	}
	r.TrackMarkers(markerLimit)
	r.TrackLease(mon.Observe)
	if err := r.Connect(); err != nil {
		return failf(plan, "connect err=%v", err), 0
	}
	engaged, acked := ship.LeaseEvidence()
	b, ok := holder.Renew(engaged, acked)
	if !ok {
		return failf(plan, "first renewal refused"), 0
	}
	if err := ship.Heartbeat(b); err != nil {
		return failf(plan, "beat err=%v", err), 0
	}

	// Fully-acked workload: everything ships and acks before the cut,
	// so a correct failover loses nothing at all.
	wr := fault.NewRNG(plan.Seed + 1)
	shadow := make(map[uint32]uint32)
	recs := uint64(0)
	seq := uint32(0)
	for i := 0; i < txns; i++ {
		seq++
		prod.Write(0, seq)
		recs++
		n := 1 + wr.Intn(t.maxBatch)
		for j := 0; j < n; j++ {
			off := uint32(markerLimit) + uint32(wr.Intn((segSize-markerLimit)/4))*4
			val := uint32(wr.Next())
			prod.Write(off, val)
			shadow[off] = val
			recs++
		}
		prod.Write(0, seq|recovery.MarkerCommit)
		recs++
	}
	if err := ship.ReleaseShip(releaseWait); err != nil {
		return failf(plan, "release err=%v", err), 0
	}
	if !waitBeats(mon, 1) {
		return failf(plan, "monitor saw no beat"), 0
	}
	// Pin beat 1's acknowledgement before the cut: that ack, dated by
	// its issue tick (0), is all the evidence the cut-off holder's
	// renewals will live on for exactly one TTL.
	if !waitAck(ship, 1) {
		return failf(plan, "beat 1 never acknowledged"), 0
	}

	verdict := "RECOVERED"
	note := ""
	fail := func(f string, args ...any) {
		if verdict == "RECOVERED" {
			verdict, note = "FAIL", fmt.Sprintf(f, args...)
		}
	}

	// The partition: the connection dies; the renewal loop does not.
	r.Kill()

	// The loop keeps ticking at TTL/4 — the stall rule never fires —
	// but its beats reach nobody and earn no acks, so the evidence rule
	// runs out one TTL after the last acked issue tick (0): the renewal
	// at tick 1250, step 5. The monitor armed at receipt (also tick 0)
	// plus the TTL and expires past tick 1000 — the same step. At no
	// step may the monitor be expired while the holder still renews.
	demoteStep := 0
	for step := 1; step <= 6 && demoteStep == 0; step++ {
		clk.Advance(leaseTTL / 4)
		engaged, acked = ship.LeaseEvidence()
		hb, ok := holder.Renew(engaged, acked)
		if !ok {
			demoteStep = step
			if !holder.Lost() {
				fail("renewal refused at step %d but holder not lost", step)
			}
			break
		}
		_ = ship.Heartbeat(hb) //errgate:ok — broadcast into the partition; non-delivery is the thing under test
		if mon.Expired() {
			fail("monitor expired at step %d while the holder still renews: split-brain window", step)
		}
		if _, err := au.AutoPromote(r, "standby", recs, logship.PromoteHooks{}); !errors.Is(err, lease.ErrHeld) {
			fail("promotion at step %d = %v, want ErrHeld", step, err)
		}
	}
	if demoteStep != 5 {
		fail("cut-off holder demoted at step %d, want 5 (one TTL after the last acked beat)", demoteStep)
	}
	if !mon.Expired() {
		fail("monitor not expired after the holder gave up")
	}

	// The standby promotes, with the handshake killed at the seed's
	// phase and resumed.
	errKill := errors.New("crashtest: simulated kill")
	_, err = au.AutoPromote(r, "standby", recs, logship.PromoteHooks{
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
	res, err := au.AutoPromote(r, "standby", recs, logship.PromoteHooks{})
	if err != nil {
		return failf(plan, "promotion resume err=%v", err), 0
	}
	if res.Lost != 0 {
		fail("lost=%d want 0: everything was acked before the cut", res.Lost)
	}
	if res.Watermark != recs {
		fail("watermark=%d want %d", res.Watermark, recs)
	}

	// Exactly one writable primary, from the remaining directions:
	if _, err := au.Renew("primary", grant); !errors.Is(err, lease.ErrNotHolder) {
		fail("authority accepted the zombie's renewal: %v", err)
	}
	if au.Epochs.Validate(grant) {
		fail("stale grant still validates: split-brain")
	}
	if !au.Epochs.Validate(res.Grant) {
		fail("promoted grant does not validate")
	}
	if h, ok := au.Holder(); h != "standby" || !ok {
		fail("lease holder=%q/%v after promotion", h, ok)
	}

	// Zero loss means byte-exact: every acked word survives.
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
	// And the refused zombie is told why.
	r2, err := logship.NewReplica(dial, segSize)
	if err != nil {
		return failf(plan, "fence replica err=%v", err), 0
	}
	r2.SetEpoch(res.Grant.Epoch)
	if ferr := r2.Connect(); !errors.Is(ferr, logship.ErrFenced) {
		r2.Kill()
		fail("zombie refusal = %v, want ErrFenced", ferr)
	}

	line := fmt.Sprintf(
		"plan=%s seed=%#x verdict=%s phase=%s demote_step=%d watermark=%d lost=%d beats=%d epoch=%d diff=%d",
		t.name, plan.Seed, verdict, killPhase, demoteStep, res.Watermark, res.Lost,
		mon.Beats(), res.Grant.Epoch, diffs)
	if note != "" {
		line += " err=" + note
	}
	return outcome{line: line, ok: verdict == "RECOVERED"}, sys.Elapsed()
}
