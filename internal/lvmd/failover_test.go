package lvmd

import (
	"testing"
	"time"

	"lvm/internal/logship"
)

// TestPromoteFromRecoveredPrimary is the in-process shape of soak phase
// C with the hard twist: the primary boots with PRE-EXISTING state, so
// standby replicas can only seed correctly via snapshot catch-up — the
// truncated log never contained the earlier arena image. A shipper
// whose logical cursor started at zero would stream the log tail alone,
// the replicas would miss the recovered slot directory, and a server
// booted from their images would route segments to the wrong slots.
// Regression for exactly that bug: NewShard must seed Ship.StartSeq
// from the recovered commit counter.
func TestPromoteFromRecoveredPrimary(t *testing.T) {
	dir := t.TempDir()
	core := CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
		AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}
	mk := func(sync bool) (*Server, logship.DialFunc) {
		srv, err := NewServer(ServerConfig{
			Dir: dir, Shards: 2,
			Shard:        ShardConfig{Core: core, SyncReplicas: sync},
			StallTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, dial := logship.NewMemTransport()
		srv.Serve(ln)
		return srv, dial
	}

	// Build pre-existing state (phase A/B stand-in), then drain.
	srv0, dial0 := mk(false)
	if _, _, err := RunLoad(LoadConfig{Dial: dial0, Clients: 32, Segments: 8,
		Duration: 500 * time.Millisecond, StoresPerCommit: 4, VerifyEvery: 8}); err != nil {
		t.Fatal(err)
	}
	srv0.Drain()

	// Recover with sync replication, attach standby replicas (which must
	// arrive by snapshot), and load again.
	srv, dial := mk(true)
	arena, _ := core.ArenaSize()
	reps := make([]*logship.Replica, 2)
	for i := range reps {
		d := SubscribeDialer(dial, uint32(i))
		r, err := logship.NewReplica(d, arena)
		if err != nil {
			t.Fatal(err)
		}
		r.TrackMarkers(MarkerLimit)
		if err := r.Connect(); err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	time.Sleep(100 * time.Millisecond)

	res, model, err := RunLoad(LoadConfig{Dial: dial, Clients: 32, Segments: 8,
		Duration: 800 * time.Millisecond, StoresPerCommit: 4, VerifyEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 || res.Deaths != 0 {
		t.Fatalf("load under sync replication: acked=%d deaths=%d", res.Acked, res.Deaths)
	}

	// Promote each replica and boot a fresh server from the images,
	// through the call cmd/lvmd's standby mode makes on lease expiry.
	boot := make([]BootShard, 2)
	for i, r := range reps {
		epoch := r.Epoch()
		b, _, err := PromoteReplica(r, "standby")
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.SnapshotsApplied.Load() == 0 {
			t.Fatalf("replica %d seeded without a snapshot: recovered state was never shipped", i)
		}
		if b.Epoch != epoch+1 {
			t.Fatalf("replica %d promoted at epoch %d, want %d", i, b.Epoch, epoch+1)
		}
		boot[i] = b
	}
	srv.Drain()

	srv2, err := NewServer(ServerConfig{
		Dir: t.TempDir(), Shards: 2,
		Shard:        ShardConfig{Core: core},
		StallTimeout: 2 * time.Second,
		Boot:         boot,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln2, dial2 := logship.NewMemTransport()
	srv2.Serve(ln2)
	checked, bad, err := VerifyModel(dial2, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("promoted server lost acked state: %d/%d mismatches, e.g. %s",
			len(bad), checked, bad[0])
	}
	if checked == 0 {
		t.Fatal("model verified nothing")
	}
	srv2.Drain()
}

// TestPromotedEpochSurvivesRestart pins the promoted-epoch restart
// fence-out fix. A daemon booted from a promotion grant serves the
// granted epoch E — typically far above its checkpoint generation. The
// old code derived a restarted daemon's epoch from the generation
// alone, so after a drain and restart (no Boot) the daemon came back
// BELOW E and every standby replica floored at E refused it as a
// zombie (ErrFenced), permanently fencing out the legitimate primary.
// Now the grant is stamped into the checkpoint header and a restart
// elects strictly past it.
func TestPromotedEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	core := CoreConfig{Slots: 16, SlotSize: 512, LogPages: 32}
	const granted = uint32(40) // far above any checkpoint generation here
	arena, err := core.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}

	// Boot from a promotion: a (blank) promoted image under grant epoch E.
	srv, err := NewServer(ServerConfig{
		Dir: dir, Shards: 1,
		Shard:        ShardConfig{Core: core},
		StallTimeout: 2 * time.Second,
		Boot:         []BootShard{{Img: make([]byte, arena), Seq: 0, Epoch: granted}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := srv.shards[0].Shipper.Epoch(); e != granted {
		t.Fatalf("promoted boot serves epoch %d, granted %d", e, granted)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(1, []Write{{Off: 0, Val: 0xAB}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	rep := srv.Drain()
	if got := rep.Shards[0].Epoch; got != granted {
		t.Fatalf("drain manifest records epoch %d, granted %d", got, granted)
	}

	// Restart from the daemon's own files, no Boot: the serving epoch
	// must come back strictly above the grant.
	srv2, err := NewServer(ServerConfig{
		Dir: dir, Shards: 1,
		Shard:        ShardConfig{Core: core},
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := srv2.shards[0].Shipper.Epoch(); e <= granted {
		t.Fatalf("restart serves epoch %d, not past granted %d: replicas floored at the grant fence it out", e, granted)
	}
	ln2, dial2 := logship.NewMemTransport()
	srv2.Serve(ln2)

	// A standby replica floored at the granted epoch — one that followed
	// the promoted daemon before the restart — must resubscribe.
	r, err := logship.NewReplica(SubscribeDialer(dial2, 0), arena)
	if err != nil {
		t.Fatal(err)
	}
	r.TrackMarkers(MarkerLimit)
	r.SetEpoch(granted)
	if err := r.Connect(); err != nil {
		t.Fatalf("standby floored at the granted epoch cannot resubscribe: %v", err)
	}
	r.Kill()
	srv2.Drain()
}

// TestRestartRenumbersShipEpoch pins the cross-boot fencing rule: each
// recovered boot adopts the checkpoint generation as its shipper epoch,
// so a subscriber of an earlier boot can never silently resume against
// a renumbered log.
func TestRestartRenumbersShipEpoch(t *testing.T) {
	dir := t.TempDir()
	core := CoreConfig{Slots: 16, SlotSize: 512, LogPages: 32,
		AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}
	mk := func() (*Server, logship.DialFunc) {
		srv, err := NewServer(ServerConfig{
			Dir: dir, Shards: 1,
			Shard:        ShardConfig{Core: core},
			StallTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, dial := logship.NewMemTransport()
		srv.Serve(ln)
		return srv, dial
	}

	srv, dial := mk()
	first := srv.shards[0].Shipper.Epoch()
	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(1, []Write{{Off: 0, Val: 0xEE}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Drain()

	srv2, _ := mk()
	second := srv2.shards[0].Shipper.Epoch()
	srv2.Drain()
	if second <= first {
		t.Fatalf("restart epoch %d did not advance past %d", second, first)
	}
}
