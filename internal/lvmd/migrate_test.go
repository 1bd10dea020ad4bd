package lvmd

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

// TestMigrateUnderLoad moves a hot segment between shards while the
// loadgen fleet commits against it: no client may die, every
// acknowledged word must read back through the post-migration routes,
// and the convergence pause must be recorded and stay under a second —
// a cutover that copies the world while frozen fails that bound.
func TestMigrateUnderLoad(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 4)

	type out struct {
		res   LoadResult
		model *Model
		err   error
	}
	ch := make(chan out, 1)
	go func() {
		res, model, err := RunLoad(LoadConfig{
			Dial:            dial,
			Clients:         24,
			Segments:        8,
			Duration:        500 * time.Millisecond,
			StoresPerCommit: 4,
			VerifyEvery:     8,
		})
		ch <- out{res, model, err}
	}()

	time.Sleep(120 * time.Millisecond) // let the fleet open and heat the segment
	const segID = uint64(1)
	from := srv.route(segID).ID
	to := (from + 1) % 4
	rep, err := srv.Migrate(segID, to)
	if err != nil {
		t.Fatalf("migrate under load: %v", err)
	}

	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Deaths != 0 {
		t.Fatalf("%d clients died across the migration", o.res.Deaths)
	}
	if o.res.ReadErrors != 0 {
		t.Fatalf("%d read-back mismatches during load", o.res.ReadErrors)
	}
	if o.res.Acked == 0 {
		t.Fatal("fleet acked nothing")
	}
	if got := srv.route(segID).ID; got != to {
		t.Fatalf("post-migration owner = shard %d, want %d", got, to)
	}
	if rep.From != from || rep.To != to {
		t.Fatalf("report routes %d->%d, want %d->%d", rep.From, rep.To, from, to)
	}
	if rep.SnapshotBytes == 0 || rep.ChaseRounds == 0 || rep.PauseNS <= 0 {
		t.Fatalf("report missing phase measurements: %+v", rep)
	}
	if pause := time.Duration(rep.PauseNS); pause >= time.Second {
		t.Fatalf("convergence pause %v, want < 1s: the cutover froze the segment too long", pause)
	}
	if got := srv.Stats().Migrations; got != 1 {
		t.Fatalf("migrations counter = %d, want 1", got)
	}

	// The acked-readable proof: every word the fleet was ever
	// acknowledged reads back, the migrated segment's from shard `to`.
	checked, bad, err := VerifyModel(dial, o.model)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("model verify: %d/%d words wrong, e.g. %s", len(bad), checked, bad[0])
	}
	if checked == 0 {
		t.Fatal("model verified nothing")
	}
	if rep2 := srv.Drain(); !rep2.Drained {
		t.Fatalf("drain not clean after migration: %+v", rep2)
	}
}

// TestMigrateRestartPreservesRoute restarts the server after a
// migration: boot-time ownership resolution must route the segment to
// the destination (the tombstone proves the copy was complete), its
// data must survive, and new commits must land there.
func TestMigrateRestartPreservesRoute(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 4)
	const segID = uint64(3)

	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(segID); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(segID, []Write{{Off: 0, Val: 0x11110000}, {Off: 8, Val: 0x22220000}}); err != nil {
		t.Fatal(err)
	}
	from := srv.route(segID).ID
	to := (from + 1) % 4
	if _, err := srv.Migrate(segID, to); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(segID, []Write{{Off: 4, Val: 0x33330000}}); err != nil {
		t.Fatalf("commit after migration: %v", err)
	}
	c.Close()
	srv.Drain()

	// Restart: scanOwnership resolves the tombstone/active pair to the
	// destination, and the data (pre- and post-migration commits) reads
	// back through the recovered route.
	srv2, dial2 := testServer(t, dir, 4)
	if got := srv2.route(segID).ID; got != to {
		t.Fatalf("recovered owner = shard %d, want destination %d", got, to)
	}
	c2, err := DialClient(dial2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Open(segID); err != nil {
		t.Fatal(err)
	}
	b, err := c2.Read(segID, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	words := []uint32{binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])}
	want := []uint32{0x11110000, 0x33330000, 0x22220000}
	for i := range want {
		if words[i] != want[i] {
			t.Fatalf("word %d after restart = %#x, want %#x", i, words[i], want[i])
		}
	}
	if err := c2.Commit(segID, []Write{{Off: 12, Val: 0x44440000}}); err != nil {
		t.Fatalf("commit after restart: %v", err)
	}
	c2.Close()
	srv2.Drain()
}

// TestMigrateRoundTrip moves a segment away and back home: the return
// trip reuses the tombstoned slot on the origin, and the reroute entry
// disappears (home ownership needs no override).
func TestMigrateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)
	const segID = uint64(2)

	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(segID); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(segID, []Write{{Off: 0, Val: 0xAB}}); err != nil {
		t.Fatal(err)
	}
	home := srv.route(segID).ID
	away := (home + 1) % 2
	if _, err := srv.Migrate(segID, away); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Migrate(segID, home); err != nil {
		t.Fatalf("migrate back home: %v", err)
	}
	if got := srv.route(segID).ID; got != home {
		t.Fatalf("owner after round trip = shard %d, want home %d", got, home)
	}
	srv.routeMu.Lock()
	overrides := len(srv.reroute)
	srv.routeMu.Unlock()
	if overrides != 0 {
		t.Fatalf("%d reroute overrides after returning home, want 0", overrides)
	}
	b, err := c.Read(segID, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(b); got != 0xAB {
		t.Fatalf("word after round trip = %#x, want 0xAB", got)
	}
	c.Close()
	srv.Drain()
}

// TestMigrateErrors pins the refusal paths: unknown destination, a
// no-op move to the current owner, and a segment no client ever opened.
func TestMigrateErrors(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)
	const segID = uint64(5)

	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(segID); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Migrate(segID, 99); err == nil || !strings.Contains(err.Error(), "unknown shard") {
		t.Fatalf("unknown destination error = %v", err)
	}
	if _, err := srv.Migrate(segID, srv.route(segID).ID); err == nil || !strings.Contains(err.Error(), "already on shard") {
		t.Fatalf("same-shard error = %v", err)
	}
	const unopened = uint64(6)
	dst := (srv.route(unopened).ID + 1) % 2
	if _, err := srv.Migrate(unopened, dst); err == nil || !strings.Contains(err.Error(), "unopened segment") {
		t.Fatalf("unopened segment error = %v", err)
	}
	c.Close()
	srv.Drain()
}
