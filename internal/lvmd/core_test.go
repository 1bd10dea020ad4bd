package lvmd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"lvm/internal/logrec"
)

func testCfg(t *testing.T, dir string) (CoreConfig, *TailFile) {
	t.Helper()
	disk, err := OpenFileDisk(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	tail, err := OpenTail(filepath.Join(dir, "tail"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tail.Close() })
	cfg := smallCore
	cfg.Disk, cfg.Tail = disk, tail
	return cfg, tail
}

// smallCore is the tests' shard geometry: small enough that a few
// hundred commits cross the compaction threshold.
var smallCore = CoreConfig{Slots: 8, SlotSize: 256, LogPages: 16}

// reopen recovers a shard from its durable files, as the daemon does on
// restart.
func reopen(t *testing.T, dir string) (*ShardCore, RecoverInfo) {
	t.Helper()
	cfg, tail := testCfg(t, dir)
	img, info, err := RecoverImage(cfg, tail)
	if err != nil {
		t.Fatalf("RecoverImage: %v", err)
	}
	c, err := NewCore(cfg, img, info.Seq)
	if err != nil {
		t.Fatalf("NewCore(recovered): %v", err)
	}
	return c, info
}

func TestCoreCommitRestartRecover(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTuning()

	for seg := uint64(1); seg <= 4; seg++ {
		if _, existed, err := c.Open(seg); err != nil || existed {
			t.Fatalf("Open(%d) = existed=%v err=%v", seg, existed, err)
		}
	}
	if _, existed, err := c.Open(2); err != nil || !existed {
		t.Fatalf("reopen of segment 2: existed=%v err=%v", existed, err)
	}
	for i := 0; i < 10; i++ {
		seg := uint64(i%4 + 1)
		if _, err := c.Commit(seg, []Write{
			{Off: uint32(4 * i), Val: uint32(0x1000 + i)},
			{Off: 128, Val: uint32(i)},
		}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatalf("SyncBatch: %v", err)
	}
	want := c.Digest()
	wantSeq := c.Seq()

	// Simulated crash: the ShardCore is dropped, only the files survive.
	c2, info := reopen(t, dir)
	if got := c2.Digest(); got != want {
		t.Fatalf("digest mismatch after restart: %x vs %x", got, want)
	}
	if c2.Seq() != wantSeq {
		t.Fatalf("seq after restart = %d, want %d", c2.Seq(), wantSeq)
	}
	if c2.Segments() != 4 {
		t.Fatalf("segments after restart = %d, want 4", c2.Segments())
	}
	if info.TailRecords == 0 || info.ReissuedRecords != info.TailRecords {
		t.Fatalf("tail re-issue: %+v", info)
	}
	// The slot map must line up: committing to an old segment works.
	if _, err := c2.Commit(3, []Write{{Off: 0, Val: 7}}); err != nil {
		t.Fatalf("Commit after restart: %v", err)
	}

	b, err := c2.Read(1, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(b); got != 8 { // last i with seg 1 was i=8
		t.Fatalf("read back %d, want 8", got)
	}
}

func TestCoreUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	cfg, tail := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(1, []Write{{Off: 0, Val: 0xAA}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	committed := c.Digest()

	// An in-flight transaction: begin marker and store mirrored, commit
	// marker missing — the crash hit between the ack fence and the next.
	slot, _ := c.Lookup(1)
	c.seq++
	c.P.Store32(c.base, c.seq)
	c.P.Store32(c.base+2048, 0) // arbitrary committed-area store
	_ = slot
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	_ = tail

	c2, _ := reopen(t, dir)
	if got := c2.Digest(); got != committed {
		t.Fatalf("uncommitted tail leaked into recovered image")
	}
}

func TestCoreCompactionKeepsRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTuning()
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	compacted := 0
	for round := 0; round < 200; round++ {
		for j := 0; j < 8; j++ {
			if _, err := c.Commit(1, []Write{{Off: uint32(4 * j), Val: uint32(round)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.SyncBatch(); err != nil {
			t.Fatal(err)
		}
		did, err := c.MaybeCompact()
		if err != nil {
			t.Fatalf("MaybeCompact: %v", err)
		}
		if did {
			compacted++
		}
	}
	if compacted == 0 {
		t.Fatalf("no compaction in 200 rounds with a %d-page log", cfg.LogPages)
	}
	want := c.Digest()
	c2, info := reopen(t, dir)
	if got := c2.Digest(); got != want {
		t.Fatalf("digest mismatch after compacted restart")
	}
	if !info.FromCheckpoint {
		t.Fatalf("recovery ignored the checkpoint: %+v", info)
	}
}

// TestRecoverImagePure checks the -check determinism probe: recovering
// twice from the same files yields identical images and leaves the files
// unchanged.
func TestRecoverImagePure(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTuning()
	if _, _, err := c.Open(9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Commit(9, []Write{{Off: 12, Val: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := c.SyncBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}

	cfg2, tail2 := testCfg(t, dir)
	img1, info1, err := RecoverImage(cfg2, tail2)
	if err != nil {
		t.Fatal(err)
	}
	img2, info2, err := RecoverImage(cfg2, tail2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("RecoverImage is not deterministic")
	}
	if info1.Seq != info2.Seq || info1.TailRecords != info2.TailRecords {
		t.Fatalf("RecoverImage info drifted: %+v vs %+v", info1, info2)
	}
}

// TestCoreIdleGenerationKeepsSeq replays the soak lifecycle that exposed
// a stale-marker bug: generation 1 drains cleanly, generation 2 commits
// and dies without draining (its state lives only in the tail mirror),
// generation 3 recovers, serves nothing, and drains. Replay never writes
// protocol words into the recovered image, so without the marker stamp
// in RecoverImage generation 3's checkpoints would carry generation 1's
// marker word — and the final recovery, finding an empty tail and so no
// replayed LastSeq to compensate, would report generation 1's sequence.
func TestCoreIdleGenerationKeepsSeq(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Commit(1, []Write{{Off: 0, Val: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil { // generation 1 drains
		t.Fatal(err)
	}

	c2, _ := reopen(t, dir) // generation 2: commits, then dies undrained
	for i := 0; i < 7; i++ {
		if _, err := c2.Commit(1, []Write{{Off: 4, Val: uint32(0x100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	wantSeq := c2.Seq()
	wantDigest := c2.Digest()

	c3, info3 := reopen(t, dir) // generation 3: recovers, serves nothing
	if info3.Seq != wantSeq || c3.Digest() != wantDigest {
		t.Fatalf("generation 3 recovered seq %d, want %d", info3.Seq, wantSeq)
	}
	if err := c3.Checkpoint(); err != nil { // generation 3 drains idle
		t.Fatal(err)
	}

	cfg4, tail4 := testCfg(t, dir)
	img, info4, err := RecoverImage(cfg4, tail4)
	if err != nil {
		t.Fatal(err)
	}
	if info4.Seq != wantSeq {
		t.Fatalf("post-idle recovery reports seq %d, want %d (stale marker)", info4.Seq, wantSeq)
	}
	if info4.TailRecords != 0 {
		t.Fatalf("idle generation left %d tail records", info4.TailRecords)
	}
	d := sha256.Sum256(img[MarkerLimit:])
	w := wantDigest
	if d != w {
		t.Fatal("post-idle recovery changed the image")
	}
}

func TestCoreSlotExhaustion(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seg := uint64(1); seg <= uint64(cfg.Slots); seg++ {
		if _, _, err := c.Open(seg); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Open(999); err != ErrNoSlot {
		t.Fatalf("Open past capacity = %v, want ErrNoSlot", err)
	}
	if _, err := c.Commit(999, nil); err == nil {
		t.Fatal("commit to unopened segment succeeded")
	}
	if _, err := c.Commit(1, []Write{{Off: cfg.SlotSize, Val: 1}}); err == nil {
		t.Fatal("out-of-range store accepted")
	}
	if _, err := c.Commit(1, []Write{{Off: 2, Val: 1}}); err == nil {
		t.Fatal("unaligned store accepted")
	}
	if _, err := c.Read(1, cfg.SlotSize-2, 4); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

// TestTailTornFinalRecord: a crash mid-flush can leave a later sector
// of the flush durable and an earlier one still zero. The mirror's end
// lies past the later sector's records, so the zero records inside it
// are damage: the walk quarantines from the gap, the recovered image is
// the committed prefix before it, and the damage is reported.
func TestTailTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	cfg, tail := testCfg(t, dir)
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(1, []Write{{Off: 0, Val: 42}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	want := c.Digest()
	prefix := tail.Size()

	// The torn flush: one transaction of 64 stores, 1056 record bytes,
	// so a whole 512-byte sector lies inside it with records after it.
	w := make([]Write, cfg.SlotSize/4)
	for k := range w {
		w[k] = Write{Off: uint32(4 * k), Val: uint32(0x7000 + k)}
	}
	if _, err := c.Commit(1, w); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	sector := (tailHdrSize + prefix + 511) / 512 * 512
	if sector+512 >= tailHdrSize+tail.Size() {
		t.Fatalf("no durable sector after the gap: sector at %d, mirror ends at %d", sector, tailHdrSize+tail.Size())
	}
	if _, err := tail.f.WriteAt(make([]byte, 512), int64(sector)); err != nil {
		t.Fatal(err)
	}

	c2, info := reopen(t, dir)
	if got := c2.Digest(); got != want {
		t.Fatal("the recovered image is not the committed prefix before the gap")
	}
	gap := uint32(sector - tailHdrSize)
	if !info.Quarantined() || info.QuarantinedFrom != gap {
		t.Fatalf("damage not reported at tail offset %d: %+v", gap, info)
	}
	if uint64(info.TailRecords)*logrec.Size != tail.Size() || info.ReissuedRecords != int(gap/logrec.Size) {
		t.Fatalf("records %d accepted of %d, want %d of %d", info.ReissuedRecords, info.TailRecords,
			gap/logrec.Size, tail.Size()/logrec.Size)
	}
}

func BenchmarkCoreCommitSync(b *testing.B) {
	dir := b.TempDir()
	disk, err := OpenFileDisk(filepath.Join(dir, "ckpt"))
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	tail, err := OpenTail(filepath.Join(dir, "tail"))
	if err != nil {
		b.Fatal(err)
	}
	defer tail.Close()
	c, err := NewCore(CoreConfig{Slots: 64, SlotSize: 4096, LogPages: 1024, Disk: disk, Tail: tail,
		AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	c.EnableTuning()
	for seg := uint64(1); seg <= 64; seg++ {
		if _, _, err := c.Open(seg); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := uint64(i%64 + 1)
		if _, err := c.Commit(seg, []Write{{Off: uint32(i % 1024 * 4), Val: uint32(i)}}); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 || i == b.N-1 { // the last commit fences too, so -benchtime 1x runs one fence
			if err := c.SyncBatch(); err != nil {
				b.Fatal(err)
			}
		}
		if i%256 == 255 {
			if _, err := c.MaybeCompact(); err != nil {
				b.Fatal(fmt.Errorf("compact: %w", err))
			}
		}
	}
}
