package logship

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lvm/internal/dsm"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
	"lvm/internal/wire"
)

// markerLimit mirrors lvmd.MarkerLimit: the first 16 bytes of the
// segment are the transaction-marker word the rollback ledger tracks.
const markerLimit = 16

// txnWriter issues complete marker-bracketed transactions against a
// producer, counting records so tests can assert exact watermarks.
type txnWriter struct {
	prod *dsm.LVMProducer
	seq  uint32
	recs uint64
}

// commit writes one transaction: open marker, n payload stores at
// distinct offsets past the marker region, commit marker.
func (w *txnWriter) commit(n int) {
	w.seq++
	w.prod.Write(0, w.seq)
	w.recs++
	for j := 0; j < n; j++ {
		off := uint32(markerLimit) + (uint32(j)*4+w.seq*28)%(shared-markerLimit)&^3
		w.prod.Write(off, 0xBEEF0000+w.seq<<4+uint32(j))
		w.recs++
	}
	w.prod.Write(0, w.seq|recovery.MarkerCommit)
	w.recs++
}

// open starts a transaction and leaves it uncommitted (no commit marker).
func (w *txnWriter) open(n int) {
	w.seq++
	w.prod.Write(0, w.seq)
	w.recs++
	for j := 0; j < n; j++ {
		off := uint32(markerLimit) + (uint32(j)*4+w.seq*28)%(shared-markerLimit)&^3
		w.prod.Write(off, 0xDEAD0000+w.seq<<4+uint32(j))
		w.recs++
	}
}

// promoteReplica is the replica half of a promotion, the calls
// lease.Authority.Promote makes around its grant: end the session, roll
// back to the last commit marker, and adopt the granted epoch. It
// returns the words rolled back.
func promoteReplica(t *testing.T, r *Replica, epoch uint32) int {
	t.Helper()
	r.Kill()
	rolled, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	r.SetEpoch(epoch)
	return rolled
}

// TestPromoteZeroTail promotes a replica that acknowledged everything
// the dead primary ever logged: the watermark is the head, the measured
// loss is zero, and nothing needs rolling back. The promoted replica's
// next session against the zombie shipper is refused on epoch alone.
func TestPromoteZeroTail(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 20; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	epoch := ship.Epoch() + 1
	rolled := promoteReplica(t, r, epoch)
	if got := r.LastSeq(); got != w.recs {
		t.Fatalf("watermark = %d, want head %d (zero unshipped tail)", got, w.recs)
	}
	if rolled != 0 {
		t.Fatalf("rolled back %d words, want 0 (no open transaction)", rolled)
	}
	if got := r.Epoch(); got != epoch {
		t.Fatalf("replica epoch = %d, want granted %d", got, epoch)
	}

	// The zombie ex-primary refuses the promoted replica's hello: its
	// generation is behind the granted epoch.
	reconnectErr := r.Connect()
	if reconnectErr == nil {
		r.Kill()
		t.Fatal("zombie shipper accepted a promoted replica")
	}
	if got := ship.Stats.FencedHellos.Load(); got == 0 {
		t.Fatal("zombie shipper did not fence the future-epoch hello")
	}
}

// TestPromoteRollsBackOpenTxn promotes a replica holding a
// half-replicated transaction: the freeze phase must undo it back to
// the last commit marker before the image can seed a primary.
func TestPromoteRollsBackOpenTxn(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 3; i++ {
		w.commit(2)
	}
	w.open(2) // open marker + 2 payload words, never committed
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	if promoteReplica(t, r, ship.Epoch()+1) == 0 {
		t.Fatal("open transaction was not rolled back")
	}
	// The image must end at the last transaction boundary: the marker
	// word reads the final committed sequence, not the open one.
	img := r.Image()
	if got, want := binary.LittleEndian.Uint32(img), uint32(3)|recovery.MarkerCommit; got != want {
		t.Fatalf("marker word after rollback = %#x, want %#x", got, want)
	}
}

// TestPromoteAckAtCompactionCut promotes at a watermark that sits
// exactly on a compaction cut: every acked record has been cut from the
// physical log, so the logical sequence numbering (base + offset) is
// the only thing carrying the watermark forward. The takeover primary
// must serve from it and catch a fresh replica up by snapshot.
func TestPromoteAckAtCompactionCut(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 16; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Cut the whole acked prefix: the ack now sits exactly at the cut.
	if err := ship.Compacted(w.recs); err != nil {
		t.Fatal(err)
	}
	if got := ship.base.Load(); got != w.recs {
		t.Fatalf("compaction base = %d, want %d", got, w.recs)
	}

	epoch := ship.Epoch() + 1
	promoteReplica(t, r, epoch)
	watermark := r.LastSeq()
	if watermark != w.recs {
		t.Fatalf("watermark=%d, want the head %d", watermark, w.recs)
	}

	ln2, dial2 := NewMemTransport()
	pr, err := Takeover(r.Image(), epoch, watermark, ln2, TakeoverConfig{
		Disk: ramdisk.New(),
		Ship: Config{FlushRecords: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Ship.Close()
	if got := pr.Ship.SealedSeq(); got != w.recs {
		t.Fatalf("takeover shipper starts at seq %d, want watermark %d", got, w.recs)
	}

	// A fresh replica (cursor far below the cut) converges by snapshot.
	r2 := connectReplica(t, dial2)
	r2.TrackMarkers(markerLimit)
	for i := 0; i < 4; i++ {
		w.seq++
		pr.P.Store32(pr.Base, w.seq)
		pr.P.Store32(pr.Base+markerLimit, 0xF00D0000+w.seq)
		pr.P.Store32(pr.Base, w.seq|recovery.MarkerCommit)
	}
	pr.Sys.Sync()
	if err := pr.Ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	r2.Kill()
	if err := dsm.Verify(pr.Seg, r2.Consumer(), shared); err != nil {
		t.Fatalf("fresh replica did not converge on the promoted primary: %v", err)
	}
	if got := r2.Stats.SnapshotsApplied.Load(); got == 0 {
		t.Fatal("catch-up across the cut did not use a snapshot")
	}
}

// TestPromoteLaggardCandidate promotes a candidate whose ack trails the
// other replica's (the laggard wins the promotion because the leader
// died too): the loss bound is exactly head − candidate watermark, and
// the better-replicated survivor must discard its unacked suffix by
// resyncing under the granted epoch.
func TestPromoteLaggardCandidate(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	var target atomic.Value // DialFunc: retargeted at the promoted primary later
	target.Store(DialFunc(dial))
	redial := func() (net.Conn, error) { return target.Load().(DialFunc)() }

	cand := connectReplica(t, DialFunc(redial))
	cand.TrackMarkers(markerLimit)
	ahead := connectReplica(t, DialFunc(redial))
	ahead.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 8; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	candMark := w.recs

	// The candidate goes dark; the other replica keeps acking.
	cand.Kill()
	for i := 0; i < 8; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	head := w.recs
	ahead.Kill()
	if got := ahead.LastSeq(); got != head {
		t.Fatalf("survivor acked %d, want head %d", got, head)
	}

	epoch := ship.Epoch() + 1
	promoteReplica(t, cand, epoch)
	watermark := cand.LastSeq()
	if watermark != candMark {
		t.Fatalf("watermark = %d, want the candidate's ack %d", watermark, candMark)
	}
	if head-watermark != 8*5 {
		t.Fatalf("lost = %d, want the 8 five-record transactions only the survivor acked", head-watermark)
	}

	ln2, dial2 := NewMemTransport()
	pr, err := Takeover(cand.Image(), epoch, watermark, ln2, TakeoverConfig{
		Disk: ramdisk.New(),
		Ship: Config{FlushRecords: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Ship.Close()

	// The survivor reconnects to the new primary. Its cursor is AHEAD of
	// the promoted watermark under a dead epoch, so the welcome forces a
	// full resync: the unacked suffix it holds is discarded, not merged.
	target.Store(DialFunc(dial2))
	if err := ahead.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.seq++
		pr.P.Store32(pr.Base, w.seq)
		pr.P.Store32(pr.Base+markerLimit, 0xF00D0000+w.seq)
		pr.P.Store32(pr.Base, w.seq|recovery.MarkerCommit)
	}
	pr.Sys.Sync()
	if err := pr.Ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ahead.Kill()
	if err := dsm.Verify(pr.Seg, ahead.Consumer(), shared); err != nil {
		t.Fatalf("survivor did not converge on the promoted timeline: %v", err)
	}
	if got := ahead.Epoch(); got != epoch {
		t.Fatalf("survivor epoch = %d, want granted %d", got, epoch)
	}
}

// TestReplicaFencesStaleWelcome hand-crafts a shipper whose welcome
// carries a generation behind the replica's: the replica must refuse
// the session with ErrFenced rather than roll back behind the promoted
// timeline it acknowledged.
func TestReplicaFencesStaleWelcome(t *testing.T) {
	ln, dial := NewMemTransport()
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, err := wire.ReadFrame(c); err != nil {
			return
		}
		c.Write(wire.Encode(&wire.Welcome{
			StartSeq: 0,
			Epoch:    2, // behind the replica's generation
			SegSize:  shared,
		}))
	}()

	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	r.SetEpoch(5)
	err = r.Connect()
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale welcome error = %v, want ErrFenced", err)
	}
	if got := r.Stats.Fenced.Load(); got != 1 {
		t.Fatalf("fenced sessions = %d, want 1", got)
	}
}

// TestRetryDialerFlakyListener exercises the bounded-retry dialer
// against a listener that refuses the first dials: the retry loop must
// absorb the flake, and exhaustion must surface the last error.
func TestRetryDialerFlakyListener(t *testing.T) {
	var calls atomic.Int32
	flaky := func() (net.Conn, error) {
		if calls.Add(1) <= 3 {
			return nil, fmt.Errorf("connection refused (attempt %d)", calls.Load())
		}
		a, b := net.Pipe()
		go a.Close()
		return b, nil
	}
	dial := RetryDialer(flaky, RetryConfig{Attempts: 5, Base: time.Millisecond, Max: 4 * time.Millisecond})
	c, err := dial()
	if err != nil {
		t.Fatalf("retry did not absorb a 3-dial flake: %v", err)
	}
	c.Close()
	if got := calls.Load(); got != 4 {
		t.Fatalf("dial attempts = %d, want 4 (3 failures + 1 success)", got)
	}

	// Exhaustion: every attempt fails, the last error comes back wrapped.
	sentinel := errors.New("still down")
	calls.Store(0)
	down := func() (net.Conn, error) { calls.Add(1); return nil, sentinel }
	dial = RetryDialer(down, RetryConfig{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond})
	if _, err := dial(); !errors.Is(err, sentinel) {
		t.Fatalf("exhaustion error = %v, want wrapped %v", err, sentinel)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("dial attempts = %d, want the configured 3", got)
	}
}
