package lease

import (
	"errors"
	"testing"
	"time"

	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/logship"
	"lvm/internal/recovery"
	"lvm/internal/wire"
)

func TestManualClock(t *testing.T) {
	c := NewManual(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now = %d, want 100", got)
	}
	c.Advance(50)
	if got := c.Now(); got != 150 {
		t.Fatalf("Now = %d, want 150", got)
	}
}

func TestWallClockAdvances(t *testing.T) {
	a := Wall{}.Now()
	time.Sleep(time.Millisecond)
	b := Wall{}.Now()
	if b <= a {
		t.Fatalf("wall clock did not advance: %d then %d", a, b)
	}
	if Ticks(time.Millisecond) != 1e6 || Ticks(-1) != 0 {
		t.Fatalf("Ticks conversion wrong: %d, %d", Ticks(time.Millisecond), Ticks(-1))
	}
}

func TestAuthorityAcquireRenewExpire(t *testing.T) {
	clk := NewManual(0)
	au := NewAuthority(clk, 100, Grant{})
	if _, ok := au.Holder(); ok {
		t.Fatal("fresh authority reports a held lease")
	}

	g, err := au.Acquire("p1")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if g.Epoch != 1 {
		t.Fatalf("first grant epoch = %d, want 1", g.Epoch)
	}
	if h, ok := au.Holder(); h != "p1" || !ok {
		t.Fatalf("holder = %q/%v, want p1/true", h, ok)
	}

	// A rival cannot acquire while the lease is current.
	if _, err := au.Acquire("p2"); !errors.Is(err, ErrHeld) {
		t.Fatalf("rival acquire = %v, want ErrHeld", err)
	}

	// Renewal pushes the deadline without burning an epoch.
	clk.Advance(90)
	dl, err := au.Renew("p1", g)
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	if dl != 190 {
		t.Fatalf("renewed deadline = %d, want 190", dl)
	}
	if !au.Validate(g) {
		t.Fatal("renewal replaced the epoch-1 grant")
	}

	// Same-holder re-acquire of an unexpired lease keeps the grant.
	g2, err := au.Acquire("p1")
	if err != nil || g2 != g {
		t.Fatalf("re-acquire = %+v, %v; want original grant", g2, err)
	}

	// Past the deadline: renewal refuses, the lease reads expired.
	clk.Advance(201)
	if _, err := au.Renew("p1", g); !errors.Is(err, ErrExpired) {
		t.Fatalf("late renew = %v, want ErrExpired", err)
	}
	if _, ok := au.Holder(); ok {
		t.Fatal("expired lease still reports a valid holder")
	}

	// The successor acquires: fresh grant, old one stops validating.
	g3, err := au.Acquire("p2")
	if err != nil {
		t.Fatalf("successor acquire: %v", err)
	}
	if g3.Epoch != 2 {
		t.Fatalf("successor epoch = %d, want 2", g3.Epoch)
	}
	if au.Validate(g) {
		t.Fatal("superseded grant still validates")
	}
	if !au.Validate(g3) {
		t.Fatal("successor grant does not validate")
	}

	// The old holder's renewal with its stale grant is a zombie.
	if _, err := au.Renew("p1", g); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("zombie renew = %v, want ErrNotHolder", err)
	}
}

// TestAuthorityRenewDeadlineBoundary pins where a late renewal starts:
// a renewal on the deadline tick itself is in time and pushes the
// deadline a TTL on; one tick past the deadline it refuses with
// ErrExpired.
func TestAuthorityRenewDeadlineBoundary(t *testing.T) {
	clk := NewManual(0)
	au := NewAuthority(clk, 100, Grant{})
	g, err := au.Acquire("p1")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	clk.Advance(100) // exactly the deadline
	if dl, err := au.Renew("p1", g); err != nil || dl != 200 {
		t.Fatalf("renew on the deadline = %d, %v; want 200, nil", dl, err)
	}
	clk.Advance(101) // one tick past the renewed deadline
	if _, err := au.Renew("p1", g); !errors.Is(err, ErrExpired) {
		t.Fatalf("renew one tick late = %v, want ErrExpired", err)
	}
}

func TestHolderRenewAndLoss(t *testing.T) {
	clk := NewManual(0)
	h := NewHolder(clk, 100, 7)

	b, ok := h.Renew(false, 0)
	if !ok {
		t.Fatal("first renew refused")
	}
	if b.Kind != wire.BeatGrant || b.Epoch != 7 || b.Seq != 1 || b.TTL != 100 {
		t.Fatalf("first beat = %+v", b)
	}
	clk.Advance(100) // exactly the TTL: still in time
	b, ok = h.Renew(false, 0)
	if !ok || b.Kind != wire.BeatRenew || b.Seq != 2 {
		t.Fatalf("second beat = %+v, ok=%v", b, ok)
	}
	if h.Lost() || h.seq != 2 {
		t.Fatalf("lost=%v beats=%d after two renewals", h.Lost(), h.seq)
	}

	// A gap past the TTL loses the lease, permanently.
	clk.Advance(101)
	if _, ok := h.Renew(false, 0); ok {
		t.Fatal("renew past the TTL succeeded")
	}
	if !h.Lost() {
		t.Fatal("holder not lost after missing the deadline")
	}
	clk.Advance(1)
	if _, ok := h.Renew(false, 0); ok {
		t.Fatal("lost holder renewed again")
	}
}

// TestHolderDeliveryEvidence is the partition half of the safety
// argument: a holder whose renewal loop keeps running on schedule must
// still demote once an engaged observer stops acknowledging beats for
// a full TTL — that is the shape of a network partition, where
// self-measured gaps prove nothing.
func TestHolderDeliveryEvidence(t *testing.T) {
	clk := NewManual(0)
	h := NewHolder(clk, 100, 7)

	// Beat 1 issued at tick 0 with an observer engaged.
	if _, ok := h.Renew(true, 0); !ok {
		t.Fatal("engaged first renew refused")
	}
	// The loop stays perfectly healthy (25-tick cadence) but no ack ever
	// arrives: the lease must run out one TTL after engagement.
	for i := 1; i <= 3; i++ {
		clk.Advance(25)
		if _, ok := h.Renew(true, 0); !ok {
			t.Fatalf("renew at tick %d refused while evidence current", 25*i)
		}
	}
	clk.Advance(25) // tick 100: exactly the TTL since engagement — still in time
	if _, ok := h.Renew(true, 0); !ok {
		t.Fatal("renew exactly at the evidence deadline refused")
	}
	clk.Advance(25) // tick 125: past it
	if _, ok := h.Renew(true, 0); ok || !h.Lost() {
		t.Fatal("partitioned holder renewed past the evidence TTL: split brain")
	}
}

// TestHolderEvidenceExtends: acknowledged beats push the evidence
// deadline by their ISSUE tick, not their ack-arrival tick, and acks
// for never-issued sequences are ignored.
func TestHolderEvidenceExtends(t *testing.T) {
	clk := NewManual(0)
	h := NewHolder(clk, 100, 7)

	if _, ok := h.Renew(true, 0); !ok { // beat 1 @ tick 0
		t.Fatal("first renew refused")
	}
	clk.Advance(60)
	if _, ok := h.Renew(true, 1); !ok { // beat 2 @ tick 60; beat 1 acked
		t.Fatal("renew with fresh ack refused")
	}
	// Beat 1's ack dates evidence at tick 0, so the deadline is 100 —
	// not 160. At tick 101 with nothing further acked, the lease is out.
	clk.Advance(41)
	if _, ok := h.Renew(true, 1); ok || !h.Lost() {
		t.Fatal("ack-arrival time extended the lease; issue time must bound it")
	}

	// The positive half: a stream of acks, each dating to its beat's
	// issue tick, keeps the lease alive indefinitely.
	clk2 := NewManual(0)
	hh := NewHolder(clk2, 100, 7)
	seq := uint64(0)
	for i := 0; i < 10; i++ {
		if _, ok := hh.Renew(true, seq); !ok {
			t.Fatalf("renewal %d refused with current acks", i)
		}
		seq++ // the beat just issued is acked before the next renewal
		clk2.Advance(90)
	}
	if hh.Lost() {
		t.Fatal("holder lost despite every beat being acknowledged")
	}

	// A holder fed an ack for a sequence it never issued must not treat
	// it as evidence: with its loop still healthy (50-tick cadence), it
	// demotes by the evidence rule anyway.
	clk3 := NewManual(0)
	h2 := NewHolder(clk3, 100, 7)
	if _, ok := h2.Renew(true, 99); !ok { // bogus future ack; beat 1 issued
		t.Fatal("first renew refused")
	}
	clk3.Advance(50)
	if _, ok := h2.Renew(true, 99); !ok { // still within the evidence TTL
		t.Fatal("renew at tick 50 refused")
	}
	clk3.Advance(51) // tick 101: past engagement + TTL, nothing really acked
	if _, ok := h2.Renew(true, 99); ok || !h2.Lost() {
		t.Fatal("never-issued ack sequence counted as delivery evidence")
	}
}

// TestHolderEngagementSticky: once an observer has been admitted,
// losing every consumer (the connection-killing face of a partition)
// must NOT disengage the holder back to loop-only renewal.
func TestHolderEngagementSticky(t *testing.T) {
	clk := NewManual(0)
	h := NewHolder(clk, 100, 7)
	if _, ok := h.Renew(true, 0); !ok {
		t.Fatal("first renew refused")
	}
	// Evidence dries up AND the caller now reports no observers (they
	// all disconnected). Engagement is sticky: the holder still demotes.
	clk.Advance(101)
	if _, ok := h.Renew(false, 0); ok || !h.Lost() {
		t.Fatal("holder disengaged when its observers vanished")
	}
}

func TestMonitorObserveExpiry(t *testing.T) {
	clk := NewManual(0)
	m := NewMonitor(clk, 100)

	// Never-heard monitors never expire: promotion must not trigger
	// before the primary proved itself on this stream.
	clk.Advance(1000)
	if m.Expired() || m.heard {
		t.Fatal("silent monitor expired or heard")
	}

	m.Observe(wire.Beat{Kind: wire.BeatGrant, Epoch: 3, Seq: 1, TTL: 100})
	if !m.heard || m.Expired() || m.Epoch() != 3 || m.Beats() != 1 {
		t.Fatalf("after first beat: heard=%v expired=%v epoch=%d beats=%d",
			m.heard, m.Expired(), m.Epoch(), m.Beats())
	}
	clk.Advance(100) // deadline inclusive
	if m.Expired() {
		t.Fatal("expired exactly at the deadline")
	}
	clk.Advance(1)
	if !m.Expired() {
		t.Fatal("not expired past the deadline")
	}

	// A renewal re-arms.
	m.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: 3, Seq: 2, TTL: 100})
	if m.Expired() {
		t.Fatal("renewed monitor still expired")
	}

	// Zombie beats (superseded epoch) are dropped, not re-armed.
	m.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: 4, Seq: 1, TTL: 100})
	clk.Advance(50)
	m.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: 3, Seq: 9, TTL: 100})
	if m.Stale() != 1 {
		t.Fatalf("stale beats = %d, want 1", m.Stale())
	}
	clk.Advance(51) // epoch-4 deadline passed; the stale beat must not have re-armed
	if !m.Expired() {
		t.Fatal("zombie beat re-armed the promoted generation's deadline")
	}
	if m.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", m.Epoch())
	}
}

// TestMonitorClampsWireTTL: the deadline arms with the smaller of the
// monitor's configured TTL and the beat's wire-carried one. A single
// beat carrying a huge TTL — a -lease-ms mismatch, a bug, a hostile
// peer — must not disable failover on this shard indefinitely.
func TestMonitorClampsWireTTL(t *testing.T) {
	clk := NewManual(0)
	m := NewMonitor(clk, 100)

	m.Observe(wire.Beat{Kind: wire.BeatGrant, Epoch: 1, Seq: 1, TTL: 1 << 60})
	clk.Advance(101)
	if !m.Expired() {
		t.Fatal("oversized wire TTL overrode the configured one: failover disabled")
	}

	// A zero wire TTL (malformed beat) clamps too, not "never expires".
	m.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: 1, Seq: 2, TTL: 0})
	if m.Expired() {
		t.Fatal("renewal did not re-arm")
	}
	clk.Advance(101)
	if !m.Expired() {
		t.Fatal("zero wire TTL disabled expiry")
	}

	// A primary configured SHORTER expires us early — the safe direction
	// — so the wire TTL is honored when it is the smaller one.
	m.Observe(wire.Beat{Kind: wire.BeatRenew, Epoch: 1, Seq: 3, TTL: 40})
	clk.Advance(41)
	if !m.Expired() {
		t.Fatal("shorter wire TTL not honored")
	}
}

// TestAutoPromoteOnlyAfterExpiry pins the automatic-promotion rule: a
// standby asking to take over while the lease is current is refused
// with ErrHeld; after expiry Promote commits the next epoch and adopts
// the lease, and a crashed promotion leaves the lease expired.
func TestAutoPromoteOnlyAfterExpiry(t *testing.T) {
	clk := NewManual(0)
	au := NewAuthority(clk, 100, Grant{})
	g, err := au.Acquire("primary")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	r, _, recs := ackedReplica(t, 3, 2)

	// Held lease: automatic promotion refuses.
	if _, err := au.Promote(r, "standby", 0, PromoteHooks{}); !errors.Is(err, ErrHeld) {
		t.Fatalf("Promote under a held lease = %v, want ErrHeld", err)
	}

	// Expired lease: promotion runs, commits epoch 2, adopts the lease.
	clk.Advance(101)
	res, err := au.Promote(r, "standby", recs+5, PromoteHooks{})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if res.Grant.Epoch != g.Epoch+1 {
		t.Fatalf("promoted epoch = %d, want %d", res.Grant.Epoch, g.Epoch+1)
	}
	if res.Watermark != recs || res.Lost != 5 {
		t.Fatalf("watermark=%d lost=%d, want %d and 5", res.Watermark, res.Lost, recs)
	}
	if res.RolledBack == 0 {
		t.Fatal("the open transaction's words were not reported rolled back")
	}
	if h, ok := au.Holder(); h != "standby" || !ok {
		t.Fatalf("holder = %q/%v, want standby/true", h, ok)
	}
	if au.Validate(g) {
		t.Fatal("old primary's grant survived the automatic promotion")
	}

	// Crash-resume shape: a failed promotion leaves the lease expired so
	// a retry proceeds (idempotence is Promote's own property).
	clk.Advance(101)
	boom := errors.New("crash")
	if _, err := au.Promote(r, "standby2", 0, PromoteHooks{
		After: func(phase string) error { return boom },
	}); !errors.Is(err, boom) {
		t.Fatalf("crashed Promote = %v, want injected error", err)
	}
	if _, ok := au.Holder(); ok {
		t.Fatal("crashed promotion adopted the lease anyway")
	}
	if _, err := au.Promote(r, "standby2", 0, PromoteHooks{}); err != nil {
		t.Fatalf("Promote retry: %v", err)
	}
}

// TestAuthorityGrantLifecycle pins the coordinator invariants: exactly
// one grant validates at a time, prepare is idempotent per candidate,
// and committing without a proposal is an explicit error.
func TestAuthorityGrantLifecycle(t *testing.T) {
	a := NewAuthority(NewManual(0), 100, Grant{})
	if a.Validate(Grant{}) {
		t.Fatal("zero grant must never validate")
	}
	if _, err := a.commitGrant(); err == nil {
		t.Fatal("commit without a prepared grant must fail")
	}
	g1 := a.prepare("cand-a")
	if g1.Epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", g1.Epoch)
	}
	if again := a.prepare("cand-a"); again != g1 {
		t.Fatalf("re-prepare for the same candidate changed the proposal: %+v != %+v", again, g1)
	}
	g2 := a.prepare("cand-b")
	if g2 == g1 {
		t.Fatal("a different candidate must supersede the proposal")
	}
	cur, err := a.commitGrant()
	if err != nil {
		t.Fatal(err)
	}
	if cur != g2 {
		t.Fatalf("committed %+v, want the prepared %+v", cur, g2)
	}
	if !a.Validate(g2) {
		t.Fatal("current grant must validate")
	}
	if a.Validate(g1) {
		t.Fatal("superseded proposal must not validate")
	}
	g3 := a.prepare("cand-c")
	if g3.Epoch != 2 {
		t.Fatalf("next epoch = %d, want 2", g3.Epoch)
	}
	if _, err := a.commitGrant(); err != nil {
		t.Fatal(err)
	}
	if a.Validate(g2) {
		t.Fatal("old grant must stop validating at the commit")
	}
}

// ackedReplica builds a primary (an LVM producer and its shipper) and
// one marker-tracking replica that has acknowledged txns complete
// transactions, then the begin marker and open stores of one that never
// commits. It returns the replica, the primary's epoch and the records
// the primary logged.
func ackedReplica(t *testing.T, txns, open int) (*logship.Replica, uint32, uint64) {
	t.Helper()
	const segSize, markerLimit = 8 * core.PageSize, 16
	ln, dial := logship.NewMemTransport()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 4096})
	prod, err := dsm.NewLVMProducer(sys, sys.NewProcess(0, sys.NewAddressSpace()), segSize, 256)
	if err != nil {
		t.Fatal(err)
	}
	ship := logship.NewShipper(sys, prod.Segment(), prod.LogSegment(), ln, logship.Config{FlushRecords: 8})
	t.Cleanup(func() { ship.Close() })
	r, err := logship.NewReplica(dial, segSize)
	if err != nil {
		t.Fatal(err)
	}
	r.TrackMarkers(markerLimit)
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	var recs uint64
	for i := uint32(1); i <= uint32(txns); i++ {
		prod.Write(0, i)
		prod.Write(markerLimit+4*i, 0xBEEF0000+i)
		prod.Write(0, i|recovery.MarkerCommit)
		recs += 3
	}
	if open > 0 {
		prod.Write(0, uint32(txns+1))
		for j := 0; j < open; j++ {
			prod.Write(markerLimit+4*uint32(j), 0xDEAD0000)
		}
		recs += 1 + uint64(open)
		if err := ship.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return r, ship.Epoch(), recs
}

// TestPromoteResumesAfterCoordinatorCrash kills the coordinator right
// after the grant commits and runs Promote again: the second run must
// finish, burning one epoch (epochs only move forward), and leave
// exactly one valid grant. The authority never granted a lease, so it
// promotes at once.
func TestPromoteResumesAfterCoordinatorCrash(t *testing.T) {
	r, epoch, recs := ackedReplica(t, 6, 0)
	a := NewAuthority(NewManual(0), 100, Grant{Epoch: epoch, Token: 7})
	boom := errors.New("coordinator crash")
	_, err := a.Promote(r, "standby", recs, PromoteHooks{
		After: func(phase string) error {
			if phase == PhaseCommit {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("crash hook did not abort the promotion: %v", err)
	}

	res, err := a.Promote(r, "standby", recs, PromoteHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Validate(res.Grant) {
		t.Fatal("resumed promotion's grant must validate")
	}
	if res.Grant.Epoch != epoch+2 {
		t.Fatalf("resumed epoch = %d, want %d (the crashed commit burns one)", res.Grant.Epoch, epoch+2)
	}
	if res.Watermark != recs || res.Lost != 0 {
		t.Fatalf("resumed watermark=%d lost=%d, want %d and 0", res.Watermark, res.Lost, recs)
	}
	if got := r.Epoch(); got != res.Grant.Epoch {
		t.Fatalf("replica epoch = %d, want %d", got, res.Grant.Epoch)
	}
}
