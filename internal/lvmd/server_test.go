package lvmd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/logship"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
	"lvm/internal/wire"
)

func testServer(t *testing.T, dir string, shards int) (*Server, logship.DialFunc) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Dir:    dir,
		Shards: shards,
		Shard: ShardConfig{
			Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
				AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024},
		},
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	return srv, dial
}

func TestServerLoadDrainRestart(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 4)
	res, model, err := RunLoad(LoadConfig{
		Dial:            dial,
		Clients:         32,
		Segments:        16,
		Duration:        300 * time.Millisecond,
		StoresPerCommit: 4,
		VerifyEvery:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 || res.Acked != res.Sent || res.Deaths != 0 {
		t.Fatalf("load: %+v", res)
	}
	if res.ReadErrors != 0 {
		t.Fatalf("%d read-back mismatches during load", res.ReadErrors)
	}
	rep := srv.Drain()
	if !rep.Drained {
		t.Fatalf("drain not clean: %+v", rep)
	}
	if len(rep.Shards) != 4 {
		t.Fatalf("drain reported %d shards", len(rep.Shards))
	}
	// The live commit counter must have seen every acked commit: fewer
	// means the metric is unwired on some path.
	var commits uint64
	for _, sh := range rep.Shards {
		if sh.Metrics != nil {
			commits += sh.Metrics.Counters["lvmd.commits"]
		}
	}
	if commits < res.Acked {
		t.Fatalf("lvmd.commits = %d over all shards, below %d acked commits", commits, res.Acked)
	}

	// Restart: every shard must recover byte-identically to its drain
	// digest, and the acked model must read back.
	srv2, dial2 := testServer(t, dir, 4)
	rep2 := srv2.Drain() // immediate drain: digests reflect pure recovery
	for i := range rep.Shards {
		if rep.Shards[i].Digest != rep2.Shards[i].Digest {
			t.Fatalf("shard %d digest changed across restart:\n%s\n%s",
				i, rep.Shards[i].Digest, rep2.Shards[i].Digest)
		}
		if rep.Shards[i].Seq != rep2.Shards[i].Seq {
			t.Fatalf("shard %d seq %d → %d across restart",
				i, rep.Shards[i].Seq, rep2.Shards[i].Seq)
		}
	}

	srv3, dial3 := testServer(t, dir, 4)
	_ = dial2
	checked, bad, err := VerifyModel(dial3, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("model verify: %d/%d words wrong, e.g. %s", len(bad), checked, bad[0])
	}
	if checked == 0 {
		t.Fatal("model verified nothing")
	}
	srv3.Drain()
}

// TestBootRefusesOtherShardCount: a directory drained by a 4-shard
// server holds every tenant on its hash home among four shards. Booted
// with two shards (shard-2 and shard-3 files left over) or eight
// (tenants off their 8-shard homes), some tenant's data would be
// unreachable and an Open of it would allocate a fresh, empty segment on
// its new home, so both boots fail. Neither leaves a file behind: four
// shards boot afterwards and read every word back.
func TestBootRefusesOtherShardCount(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 4)
	res, model, err := RunLoad(LoadConfig{
		Dial:            dial,
		Clients:         16,
		Segments:        16,
		Duration:        100 * time.Millisecond,
		StoresPerCommit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 || res.Deaths != 0 {
		t.Fatalf("load: %+v", res)
	}
	if rep := srv.Drain(); !rep.Drained {
		t.Fatalf("drain not clean: %+v", rep)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards int
		want   string
	}{{2, "shard-2.ckpt"}, {8, "hashes to shard"}} {
		s, err := NewServer(ServerConfig{Dir: dir, Shards: tc.shards, Shard: ShardConfig{
			Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64}}})
		if err == nil {
			s.Drain()
			t.Fatalf("a 4-shard directory booted with %d shards", tc.shards)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%d shards: error %q does not mention %q", tc.shards, err, tc.want)
		}
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("%d shards: the refused boot left %d files where there were %d", tc.shards, len(after), len(before))
		}
	}

	srv2, dial2 := testServer(t, dir, 4)
	defer srv2.Drain()
	checked, bad, err := VerifyModel(dial2, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 || checked == 0 {
		t.Fatalf("model verify: %d/%d words wrong %v", len(bad), checked, bad)
	}
}

// TestBootRefusesFlaggedDirectory: a slot-directory entry with a reserved
// flag bit set is refused at boot, not served as if the bit meant
// nothing. The entry is written the way Open writes one, inside a marker
// transaction, so it recovers from the tail like any directory write.
func TestBootRefusesFlaggedDirectory(t *testing.T) {
	dir := t.TempDir()
	cfg := CoreConfig{Slots: 4, SlotSize: 256, LogPages: 16}
	disk, tail, err := OpenShardFiles(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg
	cc.Disk, cc.Tail = disk, tail
	c, err := NewCore(cc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit)
	c.P.Store32(c.base+core.Addr(MarkerLimit+4), 1<<31) // entry 0's top bit
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit)
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	disk.Close()
	tail.Close()

	s, err := NewServer(ServerConfig{Dir: dir, Shards: 1, Shard: ShardConfig{Core: cfg}})
	if err == nil {
		s.Drain()
		t.Fatal("a directory entry with a reserved flag bit booted")
	}
	if !strings.Contains(err.Error(), "reserved flag bits") {
		t.Fatalf("error %q does not name the reserved flag bits", err)
	}
}

func TestServerSubscriber(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)

	// A subscriber dials the client port and sends a subscribe frame first;
	// the daemon hands the raw connection to the shard's shipper and the
	// logship protocol takes over.
	shardID := uint32(0)
	subDial := SubscribeDialer(dial, shardID)
	arenaSize, err := CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64}.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := logship.NewReplica(subDial, arenaSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Connect(); err != nil {
		t.Fatalf("subscriber connect: %v", err)
	}

	// Drive commits at every shard; only shard 0's flow to the replica.
	res, _, err := RunLoad(LoadConfig{
		Dial:     dial,
		Clients:  8,
		Segments: 8,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 {
		t.Fatalf("no commits acked: %+v", res)
	}
	report := srv.Drain() // drain hands the last batches to the replica
	rep.Kill()
	if rep.LastSeq() == 0 {
		t.Fatal("replica never consumed a batch")
	}
	if report.Host.Subscribers != 1 {
		t.Fatalf("host stats counted %d subscribers", report.Host.Subscribers)
	}

	// The replica's segment must match shard 0's drained arena.
	srv2, _ := testServer(t, dir, 2)
	sh0 := srv2.shards[0]
	srv2.Drain()
	if err := dsm.Verify(sh0.Core.Arena, rep.Consumer(), arenaSize); err != nil {
		t.Fatalf("replica diverged from shard 0: %v", err)
	}
}

func TestServerDrainRefusesNewWork(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)
	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Open(7); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(7, []Write{{Off: 0, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	// The drained server killed the connection: further calls fail rather
	// than hang.
	if err := cl.Commit(7, []Write{{Off: 0, Val: 2}}); err == nil {
		t.Fatal("commit succeeded against a drained server")
	}
}

// wroteConn keeps a copy of every byte written through it.
type wroteConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (c *wroteConn) Write(b []byte) (int, error) {
	c.wrote.Write(b)
	return c.Conn.Write(b)
}

// frames counts the whole wire frames in b.
func frames(t *testing.T, b []byte) int {
	t.Helper()
	r := bytes.NewReader(b)
	n := 0
	for {
		if _, _, err := wire.ReadFrame(r); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		n++
	}
}

// TestCommitIsOneFrame: a transaction crosses the wire as one commit
// frame carrying all its writes, up to MaxTxnStores of them. One write
// more, or a frame of the retired per-word store type, is a bad frame
// that ends the session.
func TestCommitIsOneFrame(t *testing.T) {
	const maxStores = 64
	srv, err := NewServer(ServerConfig{Dir: t.TempDir(), Shards: 2, MaxTxnStores: maxStores,
		Shard: ShardConfig{Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)

	var conn *wroteConn
	cl, err := DialClient(func() (net.Conn, error) {
		c, err := dial()
		conn = &wroteConn{Conn: c}
		return conn, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Open(7); err != nil {
		t.Fatal(err)
	}
	writes := make([]Write, maxStores)
	for i := range writes {
		writes[i] = Write{Off: uint32(4 * i), Val: 0xC0DE0000 + uint32(i)}
	}
	conn.wrote.Reset()
	if err := cl.Commit(7, writes); err != nil {
		t.Fatal(err)
	}
	if n := frames(t, conn.wrote.Bytes()); n != 1 {
		t.Fatalf("a %d-write commit crossed as %d frames, want 1", maxStores, n)
	}
	got, err := cl.Read(7, 0, 4*maxStores)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range writes {
		if v := binary.LittleEndian.Uint32(got[4*i:]); v != w.Val {
			t.Fatalf("word %d reads %#x, want %#x", i, v, w.Val)
		}
	}

	if err := cl.Commit(7, append(writes, Write{Off: 4 * maxStores})); err == nil {
		t.Fatalf("a %d-write commit was accepted", maxStores+1)
	}
	if _, err := cl.Read(7, 0, 4); err == nil {
		t.Fatal("the session outlived its oversize commit")
	}
	if bad := srv.Stats().BadFrames; bad != 1 {
		t.Fatalf("BadFrames = %d after the oversize commit, want 1", bad)
	}

	// The retired store frame's layout was a read's: segment, offset, value.
	store := wire.Encode(&wire.Read{SegID: 7, Off: 0, N: 1})
	store[5] = 18
	raw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(store); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a type-18 frame: %v, want EOF", err)
	}
	if bad := srv.Stats().BadFrames; bad != 2 {
		t.Fatalf("BadFrames = %d after the type-18 frame, want 2", bad)
	}
}

func TestServerStatsFrame(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)
	defer srv.Drain()
	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hs, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Accepted == 0 || hs.Sessions == 0 {
		t.Fatalf("stats: %+v", hs)
	}
}

// TestBootFailureLeavesNothingRunning pins the boot-failure cleanup: a
// shard that cannot recover must not leave its siblings' goroutines
// running on closed files, and the error must name the failing shard.
func TestBootFailureLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	srv, _ := testServer(t, dir, 3)
	if rep := srv.Drain(); !rep.Drained {
		t.Fatalf("drain not clean: %+v", rep)
	}
	// Corrupt the image length in both of shard 1's checkpoint headers:
	// the sealed checkpoint no longer fits the arena, so recovery refuses.
	f, err := os.OpenFile(filepath.Join(dir, "shard-1.ckpt"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < 2; slot++ {
		if _, err := f.WriteAt([]byte{0x10, 0, 0, 0}, slot*ramdisk.BlockSize+8); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	cfg := ServerConfig{Dir: dir, Shards: 3, Shard: ShardConfig{
		Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64}}}
	s, err := bootServer(cfg)
	if err == nil {
		s.Drain()
		t.Fatal("boot succeeded over a checkpoint that does not fit the arena")
	}
	if !strings.Contains(err.Error(), "shard 1 recovery") {
		t.Fatalf("error does not name shard 1: %v", err)
	}
	if s.shards[1] != nil {
		t.Fatal("the failed shard was started")
	}
	for _, i := range []int{0, 2} {
		sh := s.shards[i]
		if sh == nil {
			t.Fatalf("shard %d never booted, so the test proves nothing", i)
		}
		select {
		case <-sh.done:
		default:
			t.Fatalf("shard %d goroutine survived the failed boot", i)
		}
		if err := s.disks[i].f.Close(); err == nil {
			t.Fatalf("shard %d checkpoint file left open", i)
		}
	}
	if srv, err := NewServer(cfg); err == nil || srv != nil {
		t.Fatalf("NewServer = %v, %v on the same files", srv, err)
	}
}

// TestSlotSizeFitsOneFrame: a slot too large for one read-response frame
// is refused at boot — serving it would send a whole-slot read over the
// frame cap, which the client rejects and which desynchronizes the
// connection for every later frame. The largest accepted slot reads back
// whole, twice on one connection.
func TestSlotSizeFitsOneFrame(t *testing.T) {
	cfg := func(slot uint32) ServerConfig {
		return ServerConfig{Dir: t.TempDir(), Shards: 1,
			Shard: ShardConfig{Core: CoreConfig{Slots: 1, SlotSize: slot, LogPages: 16}}}
	}
	if srv, err := NewServer(cfg(2 << 20)); err == nil {
		srv.Drain()
		t.Fatal("NewServer accepted a 2 MiB slot")
	}
	if srv, err := NewServer(cfg(maxSlotSize + 4)); err == nil {
		srv.Drain()
		t.Fatalf("NewServer accepted a %d-byte slot", maxSlotSize+4)
	}
	srv, err := NewServer(cfg(maxSlotSize))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
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
	for i := 0; i < 2; i++ {
		if b, err := cl.Read(1, 0, maxSlotSize); err != nil || len(b) != int(maxSlotSize) {
			t.Fatalf("whole-slot read %d: %d bytes, err %v", i, len(b), err)
		}
	}
}
