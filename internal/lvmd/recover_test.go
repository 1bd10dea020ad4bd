package lvmd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"testing"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// restartRig drives one ShardCore on the files in dir with a seeded op
// stream and remembers, at every durability fence, what a restart must
// reproduce: the arena bytes past the marker area and the sequence.
type restartRig struct {
	t    *testing.T
	c    *ShardCore
	rng  *rand.Rand
	segs []uint64

	fenced    []byte
	fencedSeq uint32

	commits, subword, checkpoints, compactions int
}

func (r *restartRig) fence() {
	r.t.Helper()
	if err := r.c.SyncBatch(); err != nil {
		r.t.Fatalf("SyncBatch: %v", err)
	}
	r.fenced = make([]byte, r.c.Arena.Size()-MarkerLimit)
	r.c.Arena.ReadInto(MarkerLimit, r.fenced)
	r.fencedSeq = r.c.Seq()
}

func (r *restartRig) open() {
	r.t.Helper()
	if len(r.segs) == r.c.cfg.Slots {
		return
	}
	id := uint64(len(r.segs)) + 1
	if _, _, err := r.c.Open(id); err != nil {
		r.t.Fatalf("Open(%d): %v", id, err)
	}
	r.segs = append(r.segs, id)
}

func (r *restartRig) seg() uint64 { return r.segs[r.rng.Intn(len(r.segs))] }

// commit is one client transaction of 1–64 word stores.
func (r *restartRig) commit() {
	r.t.Helper()
	writes := make([]Write, 1+r.rng.Intn(64))
	for i := range writes {
		writes[i] = Write{Off: uint32(r.rng.Intn(int(r.c.SlotSize()/4))) * 4, Val: r.rng.Uint32()}
	}
	if _, err := r.c.Commit(r.seg(), writes); err != nil {
		r.t.Fatalf("Commit: %v", err)
	}
	r.commits++
}

// rawTxn issues a marker-bracketed transaction of byte and halfword
// stores straight through the process (ShardCore.Commit only takes
// words), optionally leaving it uncommitted.
func (r *restartRig) rawTxn(commit bool) {
	c := r.c
	slot, _ := c.Lookup(r.seg())
	va := c.base + core.Addr(c.SlotOff(slot))
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit)
	for i, n := 0, 1+r.rng.Intn(8); i < n; i++ {
		off := core.Addr(r.rng.Intn(int(c.SlotSize())))
		switch r.rng.Intn(3) {
		case 0:
			c.P.Store8(va+off, uint8(r.rng.Uint32()))
		case 1:
			c.P.Store16(va+off&^1, uint16(r.rng.Uint32()))
		default:
			c.P.Store32(va+off&^3, r.rng.Uint32())
		}
	}
	if commit {
		c.P.Store32(c.base, c.seq|recovery.MarkerCommit)
		r.subword++
	}
}

var errCrash = errors.New("crash injected before the log cut")

// drive runs steps seeded ops, fencing after every few, then ends the
// generation the way the row says. Compaction is tried at every fence,
// as the shard loop does after each batch.
func (r *restartRig) drive(steps int, ending string) {
	r.t.Helper()
	r.open()
	for i := 0; i < steps; i++ {
		switch p := r.rng.Intn(100); {
		case p < 6:
			r.open()
		case p < 14:
			r.rawTxn(true)
		case p < 17:
			r.fence()
			if err := r.c.Checkpoint(); err != nil { // no truncation: replay starts mid-tail
				r.t.Fatalf("Checkpoint: %v", err)
			}
			r.checkpoints++
		default:
			r.commit()
		}
		if r.rng.Intn(4) == 0 {
			r.fence()
			did, err := r.c.MaybeCompact()
			if err != nil {
				r.t.Fatalf("MaybeCompact: %v", err)
			}
			if did {
				r.compactions++
			}
		}
	}
	r.fence()
	switch ending {
	case "clean":
	case "uncommitted":
		// A transaction whose begin marker and stores reached the mirror
		// but whose commit marker never did.
		r.rawTxn(false)
		if err := r.c.SyncBatch(); err != nil {
			r.t.Fatalf("SyncBatch: %v", err)
		}
	case "sealed-not-cut":
		// The checkpoint seals (its header already names the post-cut
		// base) and the process dies before the log and tail are cut.
		r.commit()
		r.fence()
		r.c.Mgr.FailHook = func() error { return errCrash }
		if err := r.c.Mgr.Compact(r.c.P.CPU); !errors.Is(err, errCrash) {
			r.t.Fatalf("Compact = %v, want the injected crash", err)
		}
	default:
		r.t.Fatalf("unknown ending %q", ending)
	}
}

// recover runs RecoverImage on the rig's files and checks it against the
// last fence: the arena past the marker area, the sequence, a clean walk,
// and a second walk that agrees. It returns what the next generation
// boots from.
func (r *restartRig) recover(dir, what string) ([]byte, RecoverInfo) {
	r.t.Helper()
	cfg, tail := testCfg(r.t, dir)
	img, info, err := RecoverImage(cfg, tail)
	if err != nil {
		r.t.Fatalf("%s: RecoverImage: %v", what, err)
	}
	if !bytes.Equal(img[MarkerLimit:], r.fenced) {
		r.t.Fatalf("%s: recovered arena differs from the last fenced snapshot", what)
	}
	if info.Seq != r.fencedSeq {
		r.t.Fatalf("%s: recovered seq %d, fenced %d", what, info.Seq, r.fencedSeq)
	}
	if info.Quarantined() || info.ReissuedRecords != info.TailRecords || !info.Intact {
		r.t.Fatalf("%s: clean tail reported damaged: %+v", what, info)
	}
	img2, info2, err := RecoverImage(cfg, tail)
	if err != nil || !bytes.Equal(img, img2) || !reflect.DeepEqual(info, info2) {
		r.t.Fatalf("%s: second recovery differs (%v):\n%+v\n%+v", what, err, info, info2)
	}
	return img, info
}

// boot restarts the shard the way the daemon does (RestartCore over a
// RecoverImage result; a fresh core for a nil image).
func (r *restartRig) boot(dir string, tune func(*CoreConfig), img []byte, info RecoverInfo) *ShardCore {
	r.t.Helper()
	cfg, _ := testCfg(r.t, dir)
	if tune != nil {
		tune(&cfg)
	}
	c, err := RestartCore(cfg, img, info)
	if err != nil {
		r.t.Fatalf("RestartCore: %v", err)
	}
	c.EnableTuning()
	if img != nil {
		if got := c.Sys.MetricsSnapshot().Counters["lvmd.restart_syncs"]; got != 1 {
			r.t.Fatalf("intact restart issued %d syncs, want 1 (the epoch)", got)
		}
	}
	return c
}

// TestRestartOracle is the restart path's oracle: whatever the op stream
// and however the generation died, RecoverImage on the files reproduces
// the last fenced arena and sequence, and does so twice identically. The
// recovered image then boots the next generation through RestartCore,
// which keeps the files (one epoch sync), so every later generation's
// records continue the earlier ones' in one mirror. Endings:
//
//   - clean, uncommitted, sealed-not-cut: how a driven generation dies
//     (drive);
//   - kill-after-epoch: the next generation dies right after its epoch
//     sync, before its first commit; the files must recover to the same
//     state, and the generation after it elects a later epoch;
//   - idle-restarts: two restarts that drain without a commit in between;
//   - uncommitted-then-commit: an open transaction ends the mirror and
//     the next generation's first commit follows it directly; the open
//     one must be dropped at the new begin marker, not merged into it.
func TestRestartOracle(t *testing.T) {
	tuned := func(c *CoreConfig) { c.AbsorbWindow, c.GroupSize, c.GroupDeadline = 8, 8, 1024 }
	endings := []string{"clean", "uncommitted", "sealed-not-cut",
		"kill-after-epoch", "idle-restarts", "uncommitted-then-commit"}
	for ei, ending := range endings {
		for ti, tune := range []func(*CoreConfig){nil, tuned} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/tuned=%v/seed=%d", ending, tune != nil, seed), func(t *testing.T) {
					restartOracle(t, ending, tune, seed*100+int64(2*ei+ti))
				})
			}
		}
	}
}

func restartOracle(t *testing.T, ending string, tune func(*CoreConfig), seed int64) {
	dir := t.TempDir()
	rig := &restartRig{t: t, rng: rand.New(rand.NewSource(seed))}
	driveEnding := ending
	switch ending {
	case "kill-after-epoch", "idle-restarts":
		driveEnding = "clean"
	case "uncommitted-then-commit":
		driveEnding = "uncommitted"
	}
	var img []byte
	var info RecoverInfo
	for gen := 0; gen < 3; gen++ {
		rig.c = rig.boot(dir, tune, img, info)
		if gen > 0 && ending == "uncommitted-then-commit" {
			rig.commit()
			rig.fence()
			rig.recover(dir, fmt.Sprintf("generation %d, first commit", gen))
		}
		rig.drive(150, driveEnding)
		what := fmt.Sprintf("generation %d", gen)
		img, info = rig.recover(dir, what)
		switch ending {
		case "kill-after-epoch":
			killed := rig.boot(dir, tune, img, info)
			img, info = rig.recover(dir, what+", killed after its epoch sync")
			cfg, _ := testCfg(t, dir)
			next, err := RestartCore(cfg, img, info)
			if err != nil {
				t.Fatalf("%s: RestartCore after a killed one: %v", what, err)
			}
			if next.Mgr.Epoch() <= killed.Mgr.Epoch() {
				t.Fatalf("%s: the restart after a killed one elects %d, not past %d",
					what, next.Mgr.Epoch(), killed.Mgr.Epoch())
			}
			img, info = rig.recover(dir, what+", after the election probe")
		case "idle-restarts":
			for i := 0; i < 2; i++ {
				rig.c = rig.boot(dir, tune, img, info)
				rig.fence()
				if err := rig.c.Checkpoint(); err != nil {
					t.Fatalf("%s: idle drain: %v", what, err)
				}
				img, info = rig.recover(dir, fmt.Sprintf("%s, idle restart %d", what, i+1))
				// The drain's checkpoint covers the whole mirror: replay
				// starts exactly at its end.
				if info.Scanned != 0 || int(info.Start) != info.TailRecords*logrec.Size {
					t.Fatalf("%s: walk after an idle drain starts at %d of %d records and scans %d",
						what, info.Start/logrec.Size, info.TailRecords, info.Scanned)
				}
			}
		}
	}
	if rig.commits == 0 || rig.subword == 0 || rig.checkpoints == 0 || rig.compactions == 0 {
		t.Fatalf("op stream too thin to prove anything: %+v", *rig)
	}
}

// refReplay is the fuzz and damage tests' independent statement of what
// a restart must produce: base plus every marker-committed transaction
// of body from start up to the first invalid record. It returns the
// image, the index of that record (the record count on a clean body)
// and the resolved sequence.
func refReplay(base, body []byte, start int) ([]byte, int, uint32) {
	img := append([]byte(nil), base...)
	seq := binary.LittleEndian.Uint32(img) &^ recovery.MarkerCommit
	var pending []logrec.Record
	n := len(body) / logrec.Size
	stop := n
	for i := start / logrec.Size; i < n; i++ {
		rec := logrec.Decode(body[i*logrec.Size:])
		sz := uint64(rec.WriteSize)
		ok := (sz == 1 || sz == 2 || sz == 4) && uint64(rec.Addr)%sz == 0 &&
			uint64(rec.Addr)+sz <= uint64(len(img)) && (rec.Addr >= MarkerLimit || sz == 4)
		if !ok {
			stop = i
			break
		}
		if rec.Addr >= MarkerLimit {
			pending = append(pending, rec)
			continue
		}
		if rec.Value&recovery.MarkerCommit != 0 {
			for _, p := range pending {
				copy(img[p.Addr:], binary.LittleEndian.AppendUint32(nil, p.Value)[:p.WriteSize])
			}
			if s := rec.Value &^ recovery.MarkerCommit; s > seq {
				seq = s
			}
		}
		pending = pending[:0]
	}
	if seq != 0 {
		binary.LittleEndian.PutUint32(img, seq|recovery.MarkerCommit)
	}
	return img, stop, seq
}

// refTailEnd is the end rule, written out record by record: how many
// whole records of a tail body lie before the end, which is just past
// the last record with a non-zero size field. Zero records inside the
// end are damage, not the end.
func refTailEnd(body []byte) int {
	end := len(body) / logrec.Size
	for end > 0 && binary.LittleEndian.Uint16(body[end*logrec.Size-8:]) == 0 {
		end--
	}
	return end
}

// tailBody builds a short real tail on a fresh core over cfg.Disk: a
// few committed transactions (sub-word stores included) with two
// non-truncating checkpoints among them, so both slots hold a valid
// image and the elected one's replay starts mid-tail.
func tailBody(t testing.TB, cfg CoreConfig) []byte {
	t.Helper()
	dir := t.TempDir()
	tail, err := OpenTail(filepath.Join(dir, "tail"))
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	cfg.Tail = tail
	c, err := NewCore(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig := &restartRig{c: c, rng: rand.New(rand.NewSource(7))}
	for seg := uint64(1); seg <= 3; seg++ {
		if _, _, err := c.Open(seg); err != nil {
			t.Fatal(err)
		}
		rig.segs = append(rig.segs, seg)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Commit(rig.seg(), []Write{{Off: uint32(8 * i), Val: uint32(0x100 + i)}, {Off: 64, Val: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
		rig.rawTxn(true)
		if i == 1 || i == 3 {
			if err := c.SyncBatch(); err != nil {
				t.Fatal(err)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	body, err := tail.Load()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// openTailBytes writes a tail file holding exactly body and opens it.
func openTailBytes(t testing.TB, path string, body []byte) *TailFile {
	t.Helper()
	hdr := tailHeader(0)
	if err := os.WriteFile(path, append(hdr[:], body...), 0o644); err != nil {
		t.Fatal(err)
	}
	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	return tail
}

// recoverBytes runs RecoverImage over a tail file holding exactly body.
func recoverBytes(t testing.TB, cfg CoreConfig, path string, body []byte) ([]byte, RecoverInfo, error) {
	t.Helper()
	tail := openTailBytes(t, path, body)
	defer tail.Close()
	return RecoverImage(cfg, tail)
}

// TestRecoverImageReportsDamagedTail pins the damage report: a bad
// record mid-tail quarantines the rest, the info says where, and the
// image is still exactly checkpoint + committed prefix.
func TestRecoverImageReportsDamagedTail(t *testing.T) {
	cfg := smallCore
	disk := ramdisk.New()
	cfg.Disk = disk
	body := tailBody(t, cfg)
	path := filepath.Join(t.TempDir(), "tail")

	clean, cinfo, err := recoverBytes(t, cfg, path, body)
	if err != nil {
		t.Fatal(err)
	}
	if !cinfo.FromCheckpoint || cinfo.Start == 0 || int(cinfo.Start) >= len(body) {
		t.Fatalf("rig did not put the replay start mid-tail: %+v", cinfo)
	}
	if cinfo.Quarantined() || cinfo.ReissuedRecords != cinfo.TailRecords {
		t.Fatalf("clean tail reported damaged: %+v", cinfo)
	}

	// Damage the size field of a record past the replay start, inside a
	// later transaction.
	bad := int(cinfo.Start)/logrec.Size + (cinfo.TailRecords-int(cinfo.Start)/logrec.Size)/2
	damaged := append([]byte(nil), body...)
	damaged[bad*logrec.Size+8] = 3
	img, info, err := recoverBytes(t, cfg, path, damaged)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Quarantined() || info.InvalidRecords != 1 {
		t.Fatalf("damage not reported: %+v", info)
	}
	if info.QuarantinedFrom != uint32(bad*logrec.Size) {
		t.Fatalf("QuarantinedFrom = %d, want tail offset %d", info.QuarantinedFrom, bad*logrec.Size)
	}
	if info.ReissuedRecords != bad || info.ReissuedRecords >= info.TailRecords {
		t.Fatalf("ReissuedRecords = %d of %d, want %d", info.ReissuedRecords, info.TailRecords, bad)
	}
	// The same bytes cut off at the damage recover to the same image.
	want, winfo, err := recoverBytes(t, cfg, path, body[:bad*logrec.Size])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) || info.Seq != winfo.Seq {
		t.Fatal("damaged tail did not recover to checkpoint + committed prefix")
	}
	if bytes.Equal(img, clean) {
		t.Fatal("damage landed past the last commit: the test proves nothing")
	}
}

// FuzzRecoverImageTail feeds RecoverImage arbitrary tail bytes and
// arbitrary checkpoint header blocks over two valid images. It must
// never panic or write outside the image, the mirror must end past its
// last record with a non-zero size field, and whatever checkpoint it
// elects, the result is that image plus the committed prefix of the tail
// up to the first invalid record (a zero record inside the end is one).
func FuzzRecoverImageTail(f *testing.F) {
	cfg := smallCore
	seedDisk := ramdisk.New()
	cfg.Disk = seedDisk
	body := tailBody(f, cfg)
	arena, err := cfg.ArenaSize()
	if err != nil {
		f.Fatal(err)
	}
	// The checkpoint area: two header blocks, then two block-aligned
	// images (arena sizes are page multiples).
	hdrs := make([]byte, 2*ramdisk.BlockSize)
	imgs := make([]byte, 2*arena)
	if err := seedDisk.TryReadAt(nil, 0, hdrs); err != nil {
		f.Fatal(err)
	}
	if err := seedDisk.TryReadAt(nil, 2*ramdisk.BlockSize, imgs); err != nil {
		f.Fatal(err)
	}
	// A header is 36 bytes; short seeds keep the engine's minimizer cheap.
	h0, h1 := hdrs[:64], hdrs[ramdisk.BlockSize:ramdisk.BlockSize+64]

	// Seeds: the clean tail, a torn final record, a halfword store into
	// the marker word, a bad size mid-tail.
	mutate := func(at int, size byte) []byte {
		b := append([]byte(nil), body...)
		b[at+8] = size
		return b
	}
	mid := len(body) / 2 / logrec.Size * logrec.Size
	marker := mid
	for binary.LittleEndian.Uint32(body[marker:]) >= MarkerLimit {
		marker += logrec.Size
	}
	torn, subMarker, badSize := body[:len(body)-5], mutate(marker, 2), mutate(mid, 3)
	// A restart that kept the mirror: the old generation ends in an open
	// transaction, and the new one's first transaction reuses its
	// sequence. The open stores must be dropped at the new begin marker.
	_, _, last := refReplay(make([]byte, arena), body, 0)
	rng := rand.New(rand.NewSource(38))
	var rec [logrec.Size]byte
	nextGen := append([]byte(nil), body...)
	for _, r := range []logrec.Record{
		{Addr: 0, Value: last + 1, WriteSize: 4},
		{Addr: MarkerLimit + 8, Value: 0xDEAD, WriteSize: 4},
		{Addr: MarkerLimit + 13, Value: 0xEE, WriteSize: 1},
	} {
		r.Encode(rec[:])
		nextGen = append(nextGen, rec[:]...)
	}
	nextGen = appendTxn(nextGen, rng, arena, last+1, 3)
	foreign := mutate(mid, 0xFF)
	foreign[mid+9] = 0xFF
	// Version 2 files: the records, then their zero-filled extent; a
	// torn flush whose earlier sector stayed zero while a later one, and
	// a record past it, reached the disk; a lone record past a zero gap
	// in the extent.
	extent := append(append([]byte(nil), body...), make([]byte, 4096)...)
	sectorGap := append([]byte(nil), extent...)
	clear(sectorGap[512-tailHdrSize : 1024-tailHdrSize]) // file bytes 512..1024, mid-body
	pastGap := append([]byte(nil), extent...)
	copy(pastGap[len(body)+2*logrec.Size:], body[len(body)-logrec.Size:])
	none := []byte{}
	// Each seed states whether its walk quarantines, so a damage seed
	// that stops reaching the walk (say, behind a checkpoint's
	// watermark) fails here instead of fuzzing nothing. The damage seeds
	// run without a checkpoint, so the replay walks the whole tail.
	seeds := []struct {
		name         string
		body, h0, h1 []byte
		quarantined  bool
	}{
		{"next-generation", nextGen, h0, h1, false},
		{"next-generation-other-slot", nextGen, h1, h0, false},
		{"clean", body, h0, h1, false},
		{"torn-final-record", torn, h0, h1, false},
		// A halfword store into the marker word; a bad size mid-tail.
		{"sub-word-marker", subMarker, none, none, true},
		{"bad-size", badSize, none, none, true},
		// The size field MachineReader gives another segment's record: on
		// the machine it is skipped, in a tail mirror it is damage.
		{"foreign-form", foreign, none, none, true},
		{"clean-other-slot", body, h1, h0, false},
		{"clean-no-checkpoint", body, none, none, false},
		{"extent", extent, h0, h1, false},
		{"sector-gap", sectorGap, h0, h1, true},
		{"past-gap", pastGap, h0, h1, true},
	}
	path := filepath.Join(f.TempDir(), "tail")
	for _, sd := range seeds {
		info, ok := checkRecoverTail(f, path, imgs, sd.body, sd.h0, sd.h1)
		if !ok || info.Quarantined() != sd.quarantined {
			f.Fatalf("seed %s: refused %v, quarantined %v (from %d, start %d), want quarantined %v",
				sd.name, !ok, info.Quarantined(), info.QuarantinedFrom, info.Start, sd.quarantined)
		}
		f.Add(sd.body, sd.h0, sd.h1)
	}
	f.Fuzz(func(t *testing.T, body, h0, h1 []byte) {
		checkRecoverTail(t, path, imgs, body, h0, h1)
	})
}

// checkRecoverTail is FuzzRecoverImageTail's check of one input: body
// as the tail file, h0 and h1 as the checkpoint header blocks over the
// two images imgs. It reports the recovery's info, and false when
// RecoverImage refused the input.
func checkRecoverTail(t testing.TB, path string, imgs, body, h0, h1 []byte) (RecoverInfo, bool) {
	t.Helper()
	if len(body) > 1<<16 {
		body = body[:1<<16]
	}
	disk := ramdisk.New()
	for slot, h := range [][]byte{h0, h1} {
		if len(h) > ramdisk.BlockSize {
			h = h[:ramdisk.BlockSize]
		}
		if err := disk.TryWriteAt(nil, uint64(slot)*ramdisk.BlockSize, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.TryWriteAt(nil, 2*ramdisk.BlockSize, imgs); err != nil {
		t.Fatal(err)
	}
	cfg := smallCore
	cfg.Disk = disk
	arena := uint32(len(imgs) / 2)
	img, info, err := recoverBytes(t, cfg, path, body)
	if err != nil {
		return info, false // a sealed checkpoint of another arena size: refused, not guessed at
	}
	if uint32(len(img)) != arena {
		t.Fatalf("image is %d bytes, arena %d", len(img), arena)
	}
	if info.TailRecords != refTailEnd(body) || info.ReissuedRecords > info.TailRecords {
		t.Fatalf("record accounting: %+v over %d bytes", info, len(body))
	}
	if info.Start%logrec.Size != 0 || int(info.Start) > len(body) {
		t.Fatalf("replay start %d over %d tail bytes", info.Start, len(body))
	}
	// Which slot the fuzzed headers elected is theirs to say; the
	// image must be one of the two (or empty) plus the prefix.
	bases := [][]byte{make([]byte, arena)}
	if info.FromCheckpoint {
		bases = [][]byte{imgs[:arena], imgs[arena:]}
	}
	want, stop, seq := refReplay(bases[0], body, int(info.Start))
	if !bytes.Equal(img, want) && len(bases) == 2 {
		want, stop, seq = refReplay(bases[1], body, int(info.Start))
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("image is not checkpoint + committed prefix (info %+v)", info)
	}
	if info.Seq != seq || info.ReissuedRecords != stop || info.Quarantined() != (stop < info.TailRecords) {
		t.Fatalf("info %+v, want seq %d and %d accepted records", info, seq, stop)
	}
	img2, info2, err := recoverBytes(t, cfg, path, body)
	if err != nil || !bytes.Equal(img, img2) || !reflect.DeepEqual(info, info2) {
		t.Fatalf("second recovery differs: %v", err)
	}
	return info, true
}

// tailChunk is logcursor's refill unit (its unexported chunkSize), which
// the tests below size their tails in: long tails, whatever reads them.
const tailChunk = 256 << 10

// appendTxn appends one committed transaction of stores word stores at
// random arena offsets past the marker area.
func appendTxn(body []byte, rng *rand.Rand, arena, seq uint32, stores int) []byte {
	var rec [logrec.Size]byte
	put := func(off, val uint32) {
		logrec.Record{Addr: off, Value: val, WriteSize: 4}.Encode(rec[:])
		body = append(body, rec[:]...)
	}
	put(0, seq)
	for i := 0; i < stores; i++ {
		put(MarkerLimit+uint32(rng.Intn(int(arena-MarkerLimit)/4))*4, rng.Uint32())
	}
	put(0, seq|recovery.MarkerCommit)
	return body
}

// TestRecoverImageCrossesChunks is the damage oracle over a tail of
// several of logcursor's read chunks, with the damage in the fourth. The
// image, sequence, accepted records and absolute quarantine offset must
// match refReplay over the whole body, from a replay start mid-tail.
// RecoverImage walks the mapped mirror in one piece, so the chunk
// boundaries no longer cut its walk; the sizes keep the tail long, with
// mapping pages, open transactions and a transaction longer than a chunk
// all crossing each other. The chunk buffer's refills and doubling now
// serve only MachineReader walks, which logcursor's tests cover.
func TestRecoverImageCrossesChunks(t *testing.T) {
	cfg := smallCore
	disk := ramdisk.New()
	cfg.Disk = disk
	arena, err := cfg.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}
	body := tailBody(t, cfg)
	base, rr, err := compact.LoadCheckpoint(disk, cfg.DiskBase, arena)
	if err != nil || !rr.FromCheckpoint {
		t.Fatalf("no checkpoint to start mid-tail from: %v", err)
	}
	start := int(rr.Start - rr.Start%logrec.Size)
	// Transactions of 3–202 records, and one longer than a chunk that
	// straddles the first chunk boundary.
	rng := rand.New(rand.NewSource(29))
	long := false
	for seq := uint32(1000); len(body) < start+4*tailChunk+tailChunk/2; seq++ {
		stores := 1 + rng.Intn(200)
		if seq == 1100 {
			stores, long = tailChunk/logrec.Size+100, len(body) < start+tailChunk
		}
		body = appendTxn(body, rng, arena, seq, stores)
	}
	if !long {
		t.Fatal("the long transaction does not straddle the first chunk boundary")
	}
	bad := (start + 3*tailChunk + tailChunk/2) / logrec.Size
	for binary.LittleEndian.Uint32(body[bad*logrec.Size:]) < MarkerLimit {
		bad++ // damage a store, inside a transaction
	}
	damaged := append([]byte(nil), body...)
	damaged[bad*logrec.Size+8] = 3

	path := filepath.Join(t.TempDir(), "tail")
	for name, b := range map[string][]byte{"clean": body, "damaged": damaged} {
		img, info, err := recoverBytes(t, cfg, path, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, stop, seq := refReplay(base, b, start)
		if int(info.Start) != start || !bytes.Equal(img, want) || info.Seq != seq || info.ReissuedRecords != stop {
			t.Fatalf("%s: info %+v, want start %d, seq %d, %d accepted records, and refReplay's image",
				name, info, start, seq, stop)
		}
		wantFrom := recovery.NoQuarantine
		if name == "damaged" {
			wantFrom = uint32(bad * logrec.Size)
		}
		if info.QuarantinedFrom != wantFrom || (name == "damaged") != (stop == bad) {
			t.Fatalf("%s: QuarantinedFrom %d, want %d (refReplay stopped at record %d)", name, info.QuarantinedFrom, wantFrom, stop)
		}
	}
}

// TestRecoverImageHeapBounded pins restart heap below the arena plus
// four read chunks, however long the tail: the mirror is read through a
// mapping of the page cache, never loaded into the heap.
func TestRecoverImageHeapBounded(t *testing.T) {
	cfg := smallCore
	cfg.Disk = ramdisk.New()
	arena, err := cfg.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var body []byte
	for seq := uint32(1); len(body) < 9*tailChunk; seq++ {
		body = appendTxn(body, rng, arena, seq, 62)
	}
	tail := openTailBytes(t, filepath.Join(t.TempDir(), "tail"), body)
	defer tail.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, info, err := RecoverImage(cfg, tail)
	runtime.ReadMemStats(&after)
	if err != nil || info.Quarantined() || info.ReissuedRecords != len(body)/logrec.Size {
		t.Fatalf("recovery of a clean tail: %v, %+v", err, info)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(arena)+4*tailChunk; got >= limit {
		t.Fatalf("RecoverImage allocated %d bytes over a %d-byte tail, limit %d (arena + 4 chunks)", got, len(body), limit)
	}
}

// TestRecoverImageTruncatedTail: a mirror file cut below the end
// OpenTail found is an error ("N of M record bytes"), never a shorter
// tail and never a fault — whether the cut comes before the walk, which
// refuses the short file before mapping it, or during it, when a page of
// the mapping past the new end faults and the fault becomes that error.
func TestRecoverImageTruncatedTail(t *testing.T) {
	cfg := smallCore
	cfg.Disk = ramdisk.New()
	arena, err := cfg.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	var body []byte
	for seq := uint32(1); len(body) < 4*os.Getpagesize(); seq++ {
		body = appendTxn(body, rng, arena, seq, 20)
	}
	path := filepath.Join(t.TempDir(), "tail")
	tail := openTailBytes(t, path, body)
	defer tail.Close()
	cut := int64(2 * os.Getpagesize()) // the file's bytes; the mapping starts at file offset 0
	want := fmt.Sprintf("lvmd: tail load: %d of %d record bytes", cut-tailHdrSize, len(body))

	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverImage(cfg, tail); err == nil || err.Error() != want {
		t.Fatalf("RecoverImage over a file cut before the walk: %v, want %q", err, want)
	}

	hdr := tailHeader(0)
	if err := os.WriteFile(path, append(hdr[:], body...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, mapping, err := tail.mapRecords(0)
	if err != nil || len(recs) != len(body) {
		t.Fatalf("mapping the restored file: %v, %d of %d bytes", err, len(recs), len(body))
	}
	defer syscall.Munmap(mapping)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	_, err = walkMapped(recs, arena, logcursor.NewWalker(logcursor.Config{
		View: logcursor.Committed, MarkerLimit: MarkerLimit, End: uint32(len(recs)), Image: make([]byte, arena),
	}))
	if err == nil || err.Error() != want {
		t.Fatalf("walk over a file cut under its mapping: %v, want %q", err, want)
	}
}

// BenchmarkRecoverImage times one shard's restart replay at the
// recover_restart benchmark's size: 262 144 tail records in transactions
// of 62 stores over its arena of 64 × 4 KiB slots, with no checkpoint.
func BenchmarkRecoverImage(b *testing.B) {
	cfg := CoreConfig{Slots: 64, SlotSize: 4096, LogPages: 8192, Disk: ramdisk.New()}
	arena, err := cfg.ArenaSize()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var body []byte
	for seq := uint32(1); seq <= 4096; seq++ {
		body = appendTxn(body, rng, arena, seq, 62)
	}
	records := len(body) / logrec.Size
	tail := openTailBytes(b, filepath.Join(b.TempDir(), "tail"), body)
	defer tail.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info, err := RecoverImage(cfg, tail); err != nil || info.ReissuedRecords != records {
			b.Fatalf("RecoverImage: %v, %+v", err, info)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}
