package lvmd

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"lvm/internal/lease"
	"lvm/internal/logship"
)

// TestShardLeaseDemotion: a shard whose lease clock jumps past the TTL
// (a pause, a wedge — anything that kept the run loop from renewing)
// demotes itself: writes answer StatusDemoted, reads keep serving, and
// the drain report says so.
func TestShardLeaseDemotion(t *testing.T) {
	clk := lease.NewManual(0)
	ttl := 50 * time.Millisecond
	srv, err := NewServer(ServerConfig{
		Dir:    t.TempDir(),
		Shards: 1,
		Shard: ShardConfig{
			Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
				AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024},
			LeaseTTL:   ttl,
			LeaseClock: clk,
		},
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)

	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(1, []Write{{Off: 0, Val: 0xAA}}); err != nil {
		t.Fatalf("commit under a held lease: %v", err)
	}

	// Freeze the renewal clock past the TTL: the next wall-clock tick
	// finds the lease unrenewable and the shard demotes itself.
	clk.Advance(lease.Ticks(ttl) + 1)
	deadline := time.Now().Add(2 * time.Second)
	for !srv.shards[0].Demoted() {
		if time.Now().After(deadline) {
			t.Fatal("shard never demoted after its lease clock jumped")
		}
		time.Sleep(time.Millisecond)
	}

	if err := cl.Commit(1, []Write{{Off: 0, Val: 0xBB}}); err == nil ||
		!strings.Contains(err.Error(), "status 6") {
		t.Fatalf("commit on a demoted shard = %v, want StatusDemoted refusal", err)
	}
	if _, err := cl.Open(2); err == nil || !strings.Contains(err.Error(), "status 6") {
		t.Fatalf("open on a demoted shard = %v, want StatusDemoted refusal", err)
	}
	// Reads stay up: the data is consistent to the last acked commit.
	b, err := cl.Read(1, 0, 4)
	if err != nil {
		t.Fatalf("read on a demoted shard: %v", err)
	}
	if got := binary.LittleEndian.Uint32(b); got != 0xAA {
		t.Fatalf("demoted read = %#x, want the pre-demotion ack %#x", got, 0xAA)
	}

	rep := srv.Drain()
	if !rep.Shards[0].Demoted {
		t.Fatal("drain report does not record the demotion")
	}
}

// TestShardDemotesBeforeAckAfterPause is the regression for the
// select-race hole: a run loop resumed after a pause longer than the
// TTL has both the op queue and the beat ticker ready at its select,
// and Go picks between ready cases uniformly — so the old code could
// process and acknowledge a full batch of writes before the ticker
// case ever ran leaseTick, after a standby had already promoted. The
// ticker here is parked a quarter-hour away (huge wall TTL) so it
// cannot fire within the test: only the lease check at the top of
// process() can demote, and the post-pause commit must be refused —
// deterministically, not per the scheduler's coin flip.
func TestShardDemotesBeforeAckAfterPause(t *testing.T) {
	clk := lease.NewManual(0)
	ttl := time.Hour
	srv, err := NewServer(ServerConfig{
		Dir:    t.TempDir(),
		Shards: 1,
		Shard: ShardConfig{
			Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
				AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024},
			LeaseTTL:   ttl,
			LeaseClock: clk,
		},
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)

	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(1, []Write{{Off: 0, Val: 0xAA}}); err != nil {
		t.Fatalf("commit under a held lease: %v", err)
	}

	// The pause: the lease clock jumps past the TTL while the ticker
	// stays silent. The very next write must find the shard demoted.
	clk.Advance(lease.Ticks(ttl) + 1)
	if err := cl.Commit(1, []Write{{Off: 0, Val: 0xBB}}); err == nil ||
		!strings.Contains(err.Error(), "status 6") {
		t.Fatalf("first post-pause commit = %v, want StatusDemoted refusal", err)
	}
	if !srv.shards[0].Demoted() {
		t.Fatal("shard acked past the pause without demoting")
	}
	// The pre-pause ack survives; the refused write never applied.
	b, err := cl.Read(1, 0, 4)
	if err != nil {
		t.Fatalf("read on a demoted shard: %v", err)
	}
	if got := binary.LittleEndian.Uint32(b); got != 0xAA {
		t.Fatalf("demoted read = %#x, want the pre-demotion ack %#x", got, 0xAA)
	}
	srv.Drain()
}

// TestServerIdleDeadline is the satellite regression: a connected client
// that goes silent is reaped after IdleTimeout and counted, while an
// active client — each frame refreshes the deadline — outlives many
// timeouts' worth of wall clock.
func TestServerIdleDeadline(t *testing.T) {
	srv, dial := func() (*Server, logship.DialFunc) {
		srv, err := NewServer(ServerConfig{
			Dir:    t.TempDir(),
			Shards: 1,
			Shard: ShardConfig{
				Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
					AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024},
			},
			StallTimeout: 2 * time.Second,
			IdleTimeout:  60 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, dial := logship.NewMemTransport()
		srv.Serve(ln)
		return srv, dial
	}()
	defer srv.Drain()

	silent, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := silent.Open(1); err != nil {
		t.Fatal(err)
	}

	active, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	if _, err := active.Open(1); err != nil {
		t.Fatal(err)
	}

	// The active client paces well under the deadline but runs far past
	// it in total; the silent one sends nothing at all.
	for i := 0; i < 8; i++ {
		time.Sleep(25 * time.Millisecond)
		if err := active.Commit(1, []Write{{Off: 0, Val: uint32(i)}}); err != nil {
			t.Fatalf("active client reaped at iteration %d: %v", i, err)
		}
	}
	if got := srv.Stats().IdleExpired; got != 1 {
		t.Fatalf("idle expired = %d, want exactly the silent client", got)
	}
	// The reaped socket is actually dead, not just counted.
	if err := silent.Commit(1, []Write{{Off: 4, Val: 9}}); err == nil {
		t.Fatal("silent client's connection survived the idle deadline")
	}
}

// TestIdleTimeoutDefaultsGenerous guards the fill: the deadline exists
// to reap half-open clients, not to police think time.
func TestIdleTimeoutDefaultsGenerous(t *testing.T) {
	cfg := ServerConfig{}
	cfg.fill()
	if cfg.IdleTimeout < time.Minute {
		t.Fatalf("default idle timeout %v is aggressive enough to police think time", cfg.IdleTimeout)
	}
}
