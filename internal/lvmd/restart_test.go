package lvmd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lvm/internal/compact"
	"lvm/internal/logrec"
	"lvm/internal/wire"
)

// crashImage writes a daemon data directory as a SIGKILL leaves it: each
// shard's core opened the first three segment IDs whose hash home it is
// and committed transactions of 62 word stores, fenced every batch, and
// never drained, so no checkpoint exists and every record is in the tail
// mirror.
func crashImage(tb testing.TB, dir string, shards int, cfg CoreConfig, commits int) {
	tb.Helper()
	for i := 0; i < shards; i++ {
		disk, tail, err := OpenShardFiles(dir, i)
		if err != nil {
			tb.Fatal(err)
		}
		cc := cfg
		cc.Disk, cc.Tail = disk, tail
		c, err := NewCore(cc, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		var segs []uint64
		for id := uint64(1); len(segs) < 3; id++ {
			if homeShard(id, shards) != i {
				continue
			}
			if _, _, err := c.Open(id); err != nil {
				tb.Fatal(err)
			}
			segs = append(segs, id)
		}
		writes := make([]Write, 62)
		for n := 0; n < commits; n++ {
			for k := range writes {
				writes[k] = Write{Off: uint32((n+k)*4) % cfg.SlotSize, Val: uint32(n<<8 | k)}
			}
			if _, err := c.Commit(segs[n%len(segs)], writes); err != nil {
				tb.Fatal(err)
			}
			if n%64 == 63 || n == commits-1 {
				if err := c.SyncBatch(); err != nil {
					tb.Fatal(err)
				}
			}
		}
		disk.Close()
		tail.Close()
	}
}

// damageTail corrupts the size field of the middle record of each
// shard's mirror, so recovery quarantines the second half.
func damageTail(tb testing.TB, dir string, shards int) {
	tb.Helper()
	for i := 0; i < shards; i++ {
		tail, err := OpenTail(filepath.Join(dir, fmt.Sprintf("shard-%d.tail", i)))
		if err != nil {
			tb.Fatal(err)
		}
		mid := tail.size / logrec.Size / 2
		if _, err := tail.f.WriteAt([]byte{3}, tailHdrSize+int64(mid*logrec.Size)+8); err != nil {
			tb.Fatal(err)
		}
		tail.Close()
	}
}

func copyDir(tb testing.TB, from, to string) {
	tb.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRestartSyncs pins what a restart writes before it serves, through
// the drain manifest's lvmd.restart_syncs: an intact walk keeps the
// checkpoint and the mirror and makes its epoch durable with one sync; a
// quarantined walk still commits a checkpoint (three syncs) and resets
// the mirror (the file and its directory).
func TestRestartSyncs(t *testing.T) {
	core := CoreConfig{Slots: 16, SlotSize: 512, LogPages: 64}
	for _, tc := range []struct {
		name    string
		damaged bool
		syncs   uint64
	}{{"intact", false, 1}, {"quarantined", true, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			crashImage(t, dir, 2, core, 40)
			if tc.damaged {
				damageTail(t, dir, 2)
			}
			srv, err := NewServer(ServerConfig{Dir: dir, Shards: 2, Shard: ShardConfig{Core: core}})
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range srv.RecoverInfos() {
				if in.Quarantined() != tc.damaged || in.Intact == tc.damaged {
					t.Fatalf("shard %d walk: %+v", i, in)
				}
			}
			rep := srv.Drain()
			for i, sh := range rep.Shards {
				if got := sh.Metrics.Counters["lvmd.restart_syncs"]; got != tc.syncs {
					t.Errorf("shard %d: lvmd.restart_syncs = %d, want %d", i, got, tc.syncs)
				}
			}
		})
	}
}

// TestGrantedEpochStampOnly: a grant served on an intact restart is
// persisted only by its epoch stamp (the kept checkpoint header still
// carries the older epoch, and the mirror carries none), and the next
// restart elects past it.
func TestGrantedEpochStampOnly(t *testing.T) {
	const granted = uint32(40)
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(1, []Write{{Off: 0, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	cfg2, tail2 := testCfg(t, dir)
	img, info, err := RecoverImage(cfg2, tail2)
	if err != nil || !info.Intact {
		t.Fatalf("RecoverImage: %v, %+v", err, info)
	}
	cfg2.Epoch = granted
	if _, err := RestartCore(cfg2, img, info); err != nil {
		t.Fatal(err)
	}
	_, rr, err := compact.LoadCheckpoint(cfg2.Disk, 0, uint32(len(img)))
	if err != nil || rr.Epoch >= granted {
		t.Fatalf("checkpoint header epoch %d (%v): the grant should live in the stamp only", rr.Epoch, err)
	}

	cfg3, tail3 := testCfg(t, dir)
	img, info, err = RecoverImage(cfg3, tail3)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := RestartCore(cfg3, img, info)
	if err != nil {
		t.Fatal(err)
	}
	if e := c3.Mgr.Epoch(); e <= granted {
		t.Fatalf("restart elects epoch %d, not past the granted %d", e, granted)
	}
}

// TestFirstCompactionCutsOldGeneration: an intact restart keeps the old
// generation's records in the mirror, and the first compaction after it
// cuts them together with its own — the mirror holds fewer record bytes
// than the restart found, a reopen reads back exactly the post-cut
// records, and a later walk covers only those.
func TestFirstCompactionCutsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	cfg, tail := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig := &restartRig{t: t, c: c}
	rig.open()
	commit := func(n int) {
		for i := 0; i < n; i++ {
			w := make([]Write, 30)
			for k := range w {
				w[k] = Write{Off: uint32(k * 4), Val: uint32(rig.commits<<8 | k)}
			}
			if _, err := rig.c.Commit(1, w); err != nil {
				t.Fatal(err)
			}
			rig.commits++
		}
		rig.fence()
	}
	commit(40) // 1280 records, below the 2048-record threshold
	if did, err := c.MaybeCompact(); did || err != nil {
		t.Fatalf("first generation compacted (%v, %v)", did, err)
	}
	before := tail.Size()

	cfg2, tail2 := testCfg(t, dir)
	img, info, err := RecoverImage(cfg2, tail2)
	if err != nil || !info.Intact {
		t.Fatalf("RecoverImage: %v, %+v", err, info)
	}
	if rig.c, err = RestartCore(cfg2, img, info); err != nil {
		t.Fatal(err)
	}
	base := rig.c.Mgr.CutBase()
	if want := tail2.CutBase() + tail2.Size(); base != want {
		t.Fatalf("restarted log base %d, mirror ends at %d", base, want)
	}
	for did := false; !did; {
		commit(4)
		if did, err = rig.c.MaybeCompact(); err != nil {
			t.Fatal(err)
		}
	}
	if tail2.CutBase() < base {
		t.Fatalf("first compaction cut the mirror to %d, below the restart's base %d", tail2.CutBase(), base)
	}
	if tail2.Size() >= before {
		t.Fatalf("mirror holds %d record bytes after the first compaction, %d before the restart", tail2.Size(), before)
	}
	commit(3)
	kept, err := tail2.Load()
	if err != nil {
		t.Fatal(err)
	}

	cfg3, tail3 := testCfg(t, dir)
	rig.recover(dir, "after the first compaction")
	_, info3, err := RecoverImage(cfg3, tail3)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(info3.TailRecords)*logrec.Size != tail3.Size() || tail3.CutBase() != tail2.CutBase() || info3.Start != 0 {
		t.Fatalf("walk after the cut: %+v over a %d-byte mirror at %d", info3, tail3.Size(), tail3.CutBase())
	}
	// Reopened, the mirror holds exactly the post-cut records, all past
	// the old generation's end.
	if got, err := tail3.Load(); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("reopened mirror holds %d record bytes (%v), want the %d the cut left", len(got), err, len(kept))
	}
}

// TestRestartsKeepMirrorBounded: restarts that keep the mirror must not
// let it grow without bound. Each generation here commits less than the
// compaction threshold and dies, so its own log never triggers one; the
// mirror's length does, and the cut takes the older generations with it.
func TestRestartsKeepMirrorBounded(t *testing.T) {
	dir := t.TempDir()
	rig := &restartRig{t: t}
	half := uint64(smallCore.LogPages) * 4096 / 2
	var img []byte
	var info RecoverInfo
	compactions := 0
	for gen := 0; gen < 10; gen++ {
		rig.c = rig.boot(dir, nil, img, info)
		rig.open()
		for i := 0; i < 20; i++ { // 640 records a generation
			w := make([]Write, 30)
			for k := range w {
				w[k] = Write{Off: uint32(k * 4), Val: uint32(gen<<16 | i<<8 | k)}
			}
			if _, err := rig.c.Commit(1, w); err != nil {
				t.Fatal(err)
			}
			rig.fence()
			did, err := rig.c.MaybeCompact()
			if err != nil {
				t.Fatal(err)
			}
			if did {
				compactions++
			}
			if size := rig.c.cfg.Tail.Size(); size > half+32*logrec.Size {
				t.Fatalf("generation %d: mirror holds %d bytes, threshold %d", gen, size, half)
			}
		}
		img, info = rig.recover(dir, fmt.Sprintf("generation %d", gen))
	}
	if compactions == 0 {
		t.Fatal("no compaction ran: the mirror was never long enough to test")
	}
}

// TestRestartShipFrame: after a restart the shipper numbers records in
// the compaction manager's logical frame, so a lagging subscriber's ack
// bounds the first compaction. A shipper seeded from the transaction
// sequence instead had its base that many records off: the manager read
// the ack as a logical offset, cut that far, and the shipper's base moved
// past the subscriber, which then needed a snapshot resync.
func TestRestartShipFrame(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := c.Commit(1, []Write{{Off: uint32(i%64) * 4, Val: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil { // drained
		t.Fatal(err)
	}

	cfg2, tail2 := testCfg(t, dir)
	img, info, err := RecoverImage(cfg2, tail2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShard(0, ShardConfig{Core: cfg2}, img, info)
	if err != nil {
		t.Fatal(err)
	}
	booted := s.Core.Mgr.Stats.Checkpoints // the loop has run no op yet

	// A standby that subscribed at the restart point, then stopped acking.
	at := s.Core.Mgr.CutBase() / logrec.Size
	arena, _ := cfg2.ArenaSize()
	shipEnd, standby := net.Pipe()
	s.Adopt(shipEnd)
	if _, err := standby.Write(wire.Encode(&wire.Hello{LastSeq: at, Epoch: s.Shipper.Epoch(), SegSize: arena})); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMsg(standby)
	if w, ok := m.(*wire.Welcome); err != nil || !ok || w.StartSeq != at {
		t.Fatalf("welcome %+v (%v), want a stream from %d", m, err, at)
	}
	go io.Copy(io.Discard, standby)

	// Commits go through the shard's op queue, as a client's do, and each
	// waits for its acknowledgement.
	acks := make(chan []byte, 1)
	for i := 0; i < 80; i++ { // 2560 records, past the 2048-record threshold
		w := make([]Write, 30)
		for k := range w {
			w[k] = Write{Off: uint32(k * 4), Val: uint32(i<<8 | k)}
		}
		op := shardOp{kind: opCommit, segID: 1, writes: w, t0: time.Now(),
			reply: func(f []byte) { acks <- f }}
		if !s.submit(op, time.Second) {
			t.Fatalf("commit %d: queue full", i)
		}
		m, err := wire.ReadMsg(bytes.NewReader(<-acks))
		if r, ok := m.(*wire.CommitResp); err != nil || !ok || r.Status != StatusOK {
			t.Fatalf("commit %d: %+v (%v)", i, m, err)
		}
	}
	// The shard's state is the test's to read once Close returns. The
	// drain commits one checkpoint and cuts nothing; a compaction is any
	// checkpoint beyond it. The loop compacts after it replies, so the
	// standby stays up until the shard is closed: a dead consumer's ack
	// no longer bounds the cut, and a compaction after the last reply
	// could then cut past it. The drain waits out its 2 s ship release
	// for the standby, which never acks.
	s.Close()
	standby.Close()
	cut, base := s.Core.Mgr.CutBase(), s.Core.Sys.MetricsSnapshot().Counters["logship.frame_base"]
	if s.Core.Mgr.Stats.Checkpoints-booted < 2 {
		t.Fatal("no compaction ran: the test proves nothing")
	}
	if base > at {
		t.Fatalf("compaction cut the shipper to record %d, past the subscriber's ack at %d", base, at)
	}
	if cut != base*logrec.Size {
		t.Fatalf("manager base %d bytes, shipper base %d records: two frames", cut, base)
	}
}

// BenchmarkNewServerRestart times NewServer on a copied two-shard crash
// image (131 072 tail records per shard, no checkpoint): "intact" keeps
// the files and syncs the epoch, "quarantined" has each mirror damaged
// mid-way and so rewrites a checkpoint and resets the mirror.
func BenchmarkNewServerRestart(b *testing.B) {
	core := CoreConfig{Slots: 64, SlotSize: 4096, LogPages: 8192}
	image := b.TempDir()
	crashImage(b, image, 2, core, 2048)
	for _, damaged := range []bool{false, true} {
		name := map[bool]string{false: "intact", true: "quarantined"}[damaged]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			src := image
			if damaged {
				src = b.TempDir()
				copyDir(b, image, src)
				damageTail(b, src, 2)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "data")
				if err := os.Mkdir(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				copyDir(b, src, dir)
				b.StartTimer()
				srv, err := NewServer(ServerConfig{Dir: dir, Shards: 2, Shard: ShardConfig{Core: core}})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				for _, in := range srv.RecoverInfos() {
					if in.Quarantined() != damaged {
						b.Fatalf("walk: %+v", in)
					}
				}
				srv.Drain()
				b.StartTimer()
			}
		})
	}
}

// TestRecoverImageStaleCheckpointNotIntact: a checkpoint whose watermark
// sits below the mirror's cut base does not cover the records the cut
// dropped, so the files are not one recovered state. The walk must say
// so (Intact false) and the restart must rewrite both files, not keep
// them. The stale checkpoint is the shard's own, restored from before a
// later compaction cut the mirror past it.
func TestRecoverImageStaleCheckpointNotIntact(t *testing.T) {
	dir := t.TempDir()
	cfg, tail := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig := &restartRig{t: t, c: c}
	rig.open()
	commit := func(n int) {
		for i := 0; i < n; i++ {
			w := make([]Write, 30)
			for k := range w {
				w[k] = Write{Off: uint32(k * 4), Val: uint32(rig.commits<<8 | k)}
			}
			if _, err := rig.c.Commit(1, w); err != nil {
				t.Fatal(err)
			}
			rig.commits++
		}
		rig.fence()
	}
	commit(4)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	stale, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	_, old, err := compact.LoadCheckpoint(cfg.Disk, 0, c.Arena.Size())
	if err != nil || old.Watermark == 0 {
		t.Fatalf("first checkpoint: watermark %d (%v)", old.Watermark, err)
	}
	for did := false; !did; {
		commit(4)
		if did, err = c.MaybeCompact(); err != nil {
			t.Fatal(err)
		}
	}
	commit(2)
	if tail.CutBase() <= old.Watermark {
		t.Fatalf("compaction cut the mirror to %d, not past the first checkpoint's %d", tail.CutBase(), old.Watermark)
	}
	if err := os.WriteFile(ckpt, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2, tail2 := testCfg(t, dir)
	img, info, err := RecoverImage(cfg2, tail2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Quarantined() || info.Watermark != old.Watermark {
		t.Fatalf("walk over the stale checkpoint: %+v", info)
	}
	if info.Intact {
		t.Fatalf("watermark %d below cut base %d reads intact", info.Watermark, tail2.CutBase())
	}
	end := tail2.CutBase() + tail2.Size()
	if _, err := RestartCore(cfg2, img, info); err != nil {
		t.Fatal(err)
	}
	_, rr, err := compact.LoadCheckpoint(cfg2.Disk, 0, uint32(len(img)))
	if err != nil || rr.Watermark != end || tail2.CutBase() != end || tail2.Size() != 0 {
		t.Fatalf("restart kept the files: checkpoint watermark %d (%v), mirror %d bytes at %d, want both rewritten at %d",
			rr.Watermark, err, tail2.Size(), tail2.CutBase(), end)
	}
}
