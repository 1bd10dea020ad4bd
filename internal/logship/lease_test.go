package logship

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"lvm/internal/dsm"
	"lvm/internal/wire"
)

// TestHeartbeatFlowsToObserver ships lease heartbeats interleaved with
// batches: a tracking replica observes every beat in order, a
// non-tracking replica skips them and still converges byte-identical.
func TestHeartbeatFlowsToObserver(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8, Epoch: 3})

	var mu sync.Mutex
	var beats []wire.Beat
	ra, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	ra.TrackLease(func(b wire.Beat) {
		mu.Lock()
		beats = append(beats, b)
		mu.Unlock()
	})
	if err := ra.Connect(); err != nil {
		t.Fatal(err)
	}
	rb := connectReplica(t, dial) // no lease tracking: beats must be harmless

	// LeaseEvidence admits just-joined consumers (Heartbeat deliberately
	// does not: evidence must be gathered before the renewal decision),
	// so even an idle primary's standby hears the grant announcement.
	// With a tracking replica attached the holder reads engaged=true and
	// no acks yet.
	if engaged, acked := ship.LeaseEvidence(); !engaged || acked != 0 {
		t.Fatalf("evidence before first beat = engaged=%v acked=%d, want true/0", engaged, acked)
	}
	if err := ship.Heartbeat(wire.Beat{Kind: wire.BeatGrant, Epoch: 3, Seq: 1, TTL: 1000}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 40; i++ {
		prod.Write((i*28)%shared&^3, 0xB000+i)
	}
	if err := ship.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := ship.Heartbeat(wire.Beat{Kind: wire.BeatRenew, Epoch: 3, Seq: 2, TTL: 1000}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(40); i < 60; i++ {
		prod.Write((i*28)%shared&^3, 0xB000+i)
	}
	// The release's batch ack proves everything queued before it — both
	// beats included — was consumed: per-connection delivery is FIFO.
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := append([]wire.Beat(nil), beats...)
	mu.Unlock()
	if len(got) != 2 || got[0].Kind != wire.BeatGrant || got[0].Seq != 1 ||
		got[1].Kind != wire.BeatRenew || got[1].Seq != 2 || got[1].Epoch != 3 {
		t.Fatalf("observed beats = %+v, want grant seq 1 then renew seq 2", got)
	}
	if n := ra.Stats.BeatsSeen.Load(); n != 2 {
		t.Fatalf("tracking replica beats seen = %d, want 2", n)
	}
	if n := rb.Stats.BeatsSeen.Load(); n != 2 {
		t.Fatalf("non-tracking replica beats seen = %d, want 2", n)
	}
	if n := ship.Stats.BeatsShipped.Load(); n != 4 {
		t.Fatalf("beats shipped = %d, want 4 (2 beats × 2 consumers)", n)
	}
	// Only the tracking replica acknowledges beats — it is the lease
	// observer; the plain replica consumes them silently. Per-connection
	// delivery is FIFO both ways: the release's batch ack was written
	// after beat-ack 2, and connAcks reads them in order, so by now the
	// shipper's evidence deterministically covers beat seq 2.
	if _, acked := ship.LeaseEvidence(); acked != 2 {
		t.Fatalf("evidence acked = %d, want 2", acked)
	}
	if n := ra.Stats.BeatAcksSent.Load(); n != 2 {
		t.Fatalf("tracking replica beat acks sent = %d, want 2", n)
	}
	if n := rb.Stats.BeatAcksSent.Load(); n != 0 {
		t.Fatalf("non-tracking replica sent %d beat acks, want 0", n)
	}
	if n := ship.Stats.BeatAcks.Load(); n != 2 {
		t.Fatalf("shipper beat acks = %d, want 2", n)
	}
	for name, r := range map[string]*Replica{"tracking": ra, "plain": rb} {
		if err := dsm.Verify(prod.Segment(), r.Consumer(), shared); err != nil {
			t.Fatalf("replica %s: %v", name, err)
		}
	}
}

// TestCorruptBeatQuarantines: a lease frame with a mangled payload ends
// the session unacked, like any other corrupt frame.
func TestCorruptBeatQuarantines(t *testing.T) {
	ln, dial := NewMemTransport()
	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	r.TrackLease(func(wire.Beat) { t.Error("corrupt beat reached the observer") })
	errc := make(chan error, 1)
	go func() { errc <- r.Connect() }()
	c := fakeServer(t, ln)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	bad := wire.Encode(&wire.Beat{Kind: 9, Epoch: 1, Seq: 1}) // unknown kind, valid CRC
	if _, err := c.Write(bad); err != nil {
		t.Fatal(err)
	}
	r.Kill()
	if !errors.Is(r.err, wire.ErrCorrupt) {
		t.Fatalf("session error = %v, want ErrCorrupt", r.err)
	}
	if r.Stats.QuarantinedFrames.Load() != 1 {
		t.Fatalf("quarantined frames = %d, want 1", r.Stats.QuarantinedFrames.Load())
	}
}

// TestFencedHelloRefusedLoudly: a consumer ahead of the shipper's epoch
// is refused with a welcome carrying the stale epoch, so Connect
// surfaces ErrFenced — the zombie classifies itself — instead of a bare
// connection error.
func TestFencedHelloRefusedLoudly(t *testing.T) {
	ln, dial := NewMemTransport()
	_, _, ship := newProducer(t, ln, Config{Epoch: 2})
	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	r.SetEpoch(5) // follows a promoted generation
	if err := r.Connect(); !errors.Is(err, ErrFenced) {
		t.Fatalf("connect to a stale shipper = %v, want ErrFenced", err)
	}
	if got := ship.Stats.FencedHellos.Load(); got != 1 {
		t.Fatalf("fenced hellos = %d, want 1", got)
	}
	if got := r.Stats.Fenced.Load(); got != 1 {
		t.Fatalf("replica fenced sessions = %d, want 1", got)
	}
}

// TestRetryDialerStop is the satellite regression: a dialer stuck in its
// backoff schedule must return promptly — not after the remaining
// schedule — when the stop channel closes.
func TestRetryDialerStop(t *testing.T) {
	stop := make(chan struct{})
	dial := RetryDialer(func() (net.Conn, error) {
		return nil, errors.New("refused")
	}, RetryConfig{
		Attempts: 5,
		Base:     30 * time.Second, // without cancellation this call sleeps minutes
		Max:      30 * time.Second,
		Stop:     stop,
	})
	done := make(chan error, 1)
	go func() {
		_, err := dial()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // land mid-backoff
	start := time.Now()
	close(stop)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDialStopped) {
			t.Fatalf("canceled dial error = %v, want ErrDialStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dial did not return after stop; still sleeping out the backoff")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("dial returned %v after stop, want prompt", d)
	}

	// A pre-closed stop channel refuses before the first dial attempt.
	if _, err := dial(); !errors.Is(err, ErrDialStopped) {
		t.Fatalf("pre-stopped dial error = %v, want ErrDialStopped", err)
	}
}
