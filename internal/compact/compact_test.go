package compact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

const (
	segSize     = 16 * core.PageSize
	markerLimit = 16
)

// rig boots a one-CPU system with a logged segment, a checkpoint disk,
// and a manager over them.
func rig(t *testing.T, ship Shipper) (*core.System, *core.Segment, *core.Segment, *core.Process, core.Addr, *ramdisk.Disk, *Manager) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 2048})
	seg := core.NewNamedSegment(sys, "data", segSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 32)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	disk := ramdisk.New()
	m, err := New(sys, Options{Data: seg, Log: ls, Disk: disk, Ship: ship})
	if err != nil {
		t.Fatal(err)
	}
	return sys, seg, ls, sys.NewProcess(0, as), base, disk, m
}

// txn writes one committed marker-bracketed transaction of words.
func txn(sys *core.System, p *core.Process, base core.Addr, seq uint32, writes map[uint32]uint32) {
	p.Store32(base, seq)
	for off, val := range writes {
		p.Store32(base+off, val)
	}
	p.Store32(base, seq|recovery.MarkerCommit)
	sys.Sync()
}

func TestCheckpointBoundsRecovery(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)

	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11, 0x104: 12})
	txn(sys, p, base, 2, map[uint32]uint32{0x200: 21})
	if err := m.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	preTail := sys.K.LogAppendOffset(ls)
	txn(sys, p, base, 3, map[uint32]uint32{0x300: 31, 0x100: 99})

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FromCheckpoint || rr.Seq != 1 {
		t.Fatalf("FromCheckpoint=%v Seq=%d, want checkpoint 1", rr.FromCheckpoint, rr.Seq)
	}
	if rr.Start != preTail {
		t.Fatalf("replay started at %d, want the checkpoint watermark %d", rr.Start, preTail)
	}
	wantTail := int((sys.K.LogAppendOffset(ls) - preTail) / logrec.Size)
	if rr.Scanned != wantTail {
		t.Fatalf("scanned %d records, want only the %d-record tail", rr.Scanned, wantTail)
	}
	for off, want := range map[uint32]uint32{0x100: 99, 0x104: 12, 0x200: 21, 0x300: 31} {
		if got := dst.Read32(off); got != want {
			t.Fatalf("dst[%#x] = %d, want %d", off, got, want)
		}
	}
}

func TestCompactTruncatesLogAndStaysRecoverable(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)

	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11, 0x104: 12})
	txn(sys, p, base, 2, map[uint32]uint32{0x200: 21})
	pre := sys.K.LogAppendOffset(ls)
	if err := m.Compact(p.CPU); err != nil {
		t.Fatal(err)
	}
	// Without consumers the whole log is safe to cut.
	if got := sys.K.LogAppendOffset(ls); got != 0 {
		t.Fatalf("log append offset after compact = %d, want 0", got)
	}
	if m.CutBase() != uint64(pre) {
		t.Fatalf("cutBase = %d, want %d", m.CutBase(), pre)
	}
	if m.Stats.Truncations != 1 || m.Stats.BytesTruncated != uint64(pre) {
		t.Fatalf("stats = %+v, want 1 truncation of %d bytes", m.Stats, pre)
	}
	txn(sys, p, base, 3, map[uint32]uint32{0x100: 99})

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FromCheckpoint || rr.Start != 0 {
		t.Fatalf("rr = %+v, want checkpoint-seeded replay of the fresh tail", rr)
	}
	for off, want := range map[uint32]uint32{0x100: 99, 0x104: 12, 0x200: 21} {
		if got := dst.Read32(off); got != want {
			t.Fatalf("dst[%#x] = %d, want %d", off, got, want)
		}
	}
}

// fakeShip is a Shipper whose lowest ack the test controls.
type fakeShip struct {
	minAcked  uint64
	compacted []uint64
}

func (f *fakeShip) MinAcked() uint64 { return f.minAcked }
func (f *fakeShip) Compacted(cut uint64) error {
	f.compacted = append(f.compacted, cut)
	return nil
}

func TestCompactRespectsConsumerAcks(t *testing.T) {
	ship := &fakeShip{}
	sys, seg, ls, p, base, disk, m := rig(t, ship)

	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})
	txn(sys, p, base, 2, map[uint32]uint32{0x200: 22})
	end := sys.K.LogAppendOffset(ls)
	// The slowest consumer has only acked half the log.
	ship.minAcked = uint64(end) / logrec.Size / 2
	if err := m.Compact(p.CPU); err != nil {
		t.Fatal(err)
	}
	wantCut := uint32(ship.minAcked * logrec.Size)
	if got := sys.K.LogAppendOffset(ls); got != end-wantCut {
		t.Fatalf("append offset = %d, want unacked tail %d", got, end-wantCut)
	}
	if len(ship.compacted) != 1 || ship.compacted[0] != ship.minAcked {
		t.Fatalf("Compacted calls = %v, want one cut of %d records", ship.compacted, ship.minAcked)
	}

	// Recovery replays only past the watermark, although more physical
	// records survive for catch-up shipping.
	txn(sys, p, base, 3, map[uint32]uint32{0x300: 33})
	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Start != end-wantCut {
		t.Fatalf("replay start = %d, want %d (watermark - cutBase)", rr.Start, end-wantCut)
	}
	for off, want := range map[uint32]uint32{0x100: 11, 0x200: 22, 0x300: 33} {
		if got := dst.Read32(off); got != want {
			t.Fatalf("dst[%#x] = %d, want %d", off, got, want)
		}
	}
}

func TestInterruptedCheckpointFallsBackToPrevious(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)

	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})
	if err := m.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	txn(sys, p, base, 2, map[uint32]uint32{0x100: 22})

	// Fail the second checkpoint's seal write (op 5 of its 6): the slot
	// is open but never committed, so recovery must elect checkpoint 1.
	ops := 0
	disk.FailHook = func(op ramdisk.Op, off uint64, n int) error {
		ops++
		if ops == 5 {
			return errors.New("injected seal failure")
		}
		return nil
	}
	if err := m.Checkpoint(p.CPU); err == nil {
		t.Fatal("interrupted checkpoint reported success")
	}
	disk.FailHook = nil
	if m.Seq() != 1 {
		t.Fatalf("seq advanced to %d despite failed commit", m.Seq())
	}

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FromCheckpoint || rr.Seq != 1 {
		t.Fatalf("rr = %+v, want fallback to committed checkpoint 1", rr)
	}
	if got := dst.Read32(0x100); got != 22 {
		t.Fatalf("dst[0x100] = %d, want 22 (checkpoint 1 + replayed txn 2)", got)
	}
}

func TestRecoverWithoutCheckpointReplaysWholeLog(t *testing.T) {
	sys, seg, ls, p, base, disk, _ := rig(t, nil)
	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.FromCheckpoint || rr.Start != 0 {
		t.Fatalf("rr = %+v, want plain full replay", rr)
	}
	if got := dst.Read32(0x100); got != 11 {
		t.Fatalf("dst[0x100] = %d, want 11", got)
	}
}

func TestTruncateAllPropagatesInjectedFailure(t *testing.T) {
	sys, _, ls, p, base, _, m := rig(t, nil)
	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})
	end := sys.K.LogAppendOffset(ls)

	want := errors.New("injected truncation failure")
	m.FailHook = func() error { return want }
	if err := m.TruncateAll(); !errors.Is(err, want) {
		t.Fatalf("TruncateAll error = %v, want the injected failure", err)
	}
	if m.Stats.TruncateFailures != 1 {
		t.Fatalf("TruncateFailures = %d, want 1", m.Stats.TruncateFailures)
	}
	if got := sys.K.LogAppendOffset(ls); got != end {
		t.Fatalf("append offset moved to %d on failed truncation", got)
	}
	if m.CutBase() != 0 {
		t.Fatalf("cutBase moved to %d on failed truncation", m.CutBase())
	}

	m.FailHook = nil
	if err := m.TruncateAll(); err != nil {
		t.Fatal(err)
	}
	if got := sys.K.LogAppendOffset(ls); got != 0 {
		t.Fatalf("append offset = %d after TruncateAll, want 0", got)
	}
	if m.CutBase() != uint64(end) {
		t.Fatalf("cutBase = %d, want %d", m.CutBase(), end)
	}
	if m.Stats.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1", m.Stats.Truncations)
	}
}

func TestNewResumesCommittedGeneration(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)
	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})
	for i := 0; i < 3; i++ {
		if err := m.Checkpoint(p.CPU); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := New(sys, Options{Data: seg, Log: ls, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq() != 3 {
		t.Fatalf("restarted manager resumed at seq %d, want 3", m2.Seq())
	}
	// Its next checkpoint must win the slot election over the stale one.
	if err := m2.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	st, ok, err := loadState(disk, 0)
	if err != nil || !ok {
		t.Fatalf("loadState: ok=%v err=%v", ok, err)
	}
	if st.seq != 4 {
		t.Fatalf("elected checkpoint %d, want 4", st.seq)
	}
}

// TestStampEpoch: an epoch stamp persists an epoch no checkpoint
// carries, survives the next checkpoint's writes to its header block,
// and leaves slot election and the committed image alone.
func TestStampEpoch(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)
	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})
	if err := m.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	// stale knows nothing of the stamp: its next header carries epoch 0.
	stale, err := New(sys, Options{Data: seg, Log: ls, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	m.SetEpoch(9)
	syncs := disk.Syncs
	if err := m.StampEpoch(p.CPU); err != nil {
		t.Fatal(err)
	}
	if disk.Syncs != syncs+1 {
		t.Fatalf("StampEpoch synced %d times, want 1", disk.Syncs-syncs)
	}
	reopen := func(seq uint32) *Manager {
		t.Helper()
		m2, err := New(sys, Options{Data: seg, Log: ls, Disk: disk})
		if err != nil {
			t.Fatal(err)
		}
		if m2.Epoch() != 9 || m2.Seq() != seq {
			t.Fatalf("resumed epoch %d seq %d, want 9 and %d", m2.Epoch(), m2.Seq(), seq)
		}
		return m2
	}
	reopen(1)
	img, rr, err := LoadCheckpoint(disk, 0, segSize)
	if err != nil || rr.Seq != 1 || rr.Epoch != 0 || binary.LittleEndian.Uint32(img[0x100:]) != 11 {
		t.Fatalf("the stamp moved the committed checkpoint: %+v, %v", rr, err)
	}

	// The next checkpoint opens, fills and seals the block the stamp is in.
	txn(sys, p, base, 2, map[uint32]uint32{0x100: 12})
	if err := stale.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	if _, rr, err := LoadCheckpoint(disk, 0, segSize); err != nil || rr.Seq != 2 || rr.Epoch != 0 {
		t.Fatalf("checkpoint over the stamped block: %+v, %v", rr, err)
	}
	reopen(2)
}

func TestEpochPersistsAcrossCheckpoints(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)
	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})

	// A manager without a seed stamps epoch 0 — the legacy header shape.
	if err := m.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	if st, ok, _ := loadState(disk, 0); !ok || st.epoch != 0 {
		t.Fatalf("unseeded header: ok=%v epoch=%d, want committed epoch 0", ok, st.epoch)
	}

	// A raised epoch (a promotion grant) rides the next checkpoint.
	m.SetEpoch(40)
	m.SetEpoch(7) // epochs only move forward
	if m.Epoch() != 40 {
		t.Fatalf("SetEpoch regressed to %d", m.Epoch())
	}
	if err := m.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}

	// A fresh manager resumes the committed epoch; an Options seed loses
	// to a higher committed one and wins over a lower one.
	m2, err := New(sys, Options{Data: seg, Log: ls, Disk: disk, Epoch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() != 40 {
		t.Fatalf("restarted manager resumed epoch %d, want the committed 40", m2.Epoch())
	}
	m3, err := New(sys, Options{Data: seg, Log: ls, Disk: disk, Epoch: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Epoch() != 50 {
		t.Fatalf("seeded manager elected epoch %d, want the higher seed 50", m3.Epoch())
	}

	// Recover surfaces the committed header's epoch.
	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FromCheckpoint || rr.Epoch != 40 {
		t.Fatalf("recover reported epoch %d (FromCheckpoint=%v), want 40", rr.Epoch, rr.FromCheckpoint)
	}
}

func TestCompactMidTransactionTailReplaysAcrossCut(t *testing.T) {
	// A shipper ack can land mid-transaction: the retained tail then
	// starts inside a txn whose commit marker is past the watermark. The
	// replay must still converge (the image covers the overlap, and
	// re-applying an in-order suffix of absolute writes is idempotent).
	ship := &fakeShip{}
	sys, seg, ls, p, base, disk, m := rig(t, ship)

	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11, 0x104: 12, 0x108: 13})
	end := sys.K.LogAppendOffset(ls)
	// Ack cursor inside txn 1 (after its begin marker + first store).
	ship.minAcked = 2
	if err := m.Compact(p.CPU); err != nil {
		t.Fatal(err)
	}
	if got := sys.K.LogAppendOffset(ls); got != end-2*logrec.Size {
		t.Fatalf("append offset = %d, want %d", got, end-2*logrec.Size)
	}
	txn(sys, p, base, 2, map[uint32]uint32{0x200: 22})

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	rr, err := Recover(sys, RecoverOptions{
		Disk: disk, Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FromCheckpoint {
		t.Fatalf("rr = %+v, want checkpoint-seeded replay", rr)
	}
	for off, want := range map[uint32]uint32{0x100: 11, 0x104: 12, 0x108: 13, 0x200: 22} {
		if got := dst.Read32(off); got != want {
			t.Fatalf("dst[%#x] = %d, want %d", off, got, want)
		}
	}
}

func TestManagerValidatesOptions(t *testing.T) {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 256})
	seg := core.NewNamedSegment(sys, "plain", core.PageSize, nil)
	if _, err := New(sys, Options{}); err == nil {
		t.Fatal("New accepted a nil log")
	}
	if _, err := New(sys, Options{Log: seg}); err == nil {
		t.Fatal("New accepted a non-log segment")
	}
	ls := core.NewLogSegment(sys, 2)
	if _, err := New(sys, Options{Log: ls, Disk: ramdisk.New()}); err == nil {
		t.Fatal("New accepted a checkpoint device without a data segment")
	}
	m, err := New(sys, Options{Log: ls})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(nil); err == nil {
		t.Fatal("Checkpoint succeeded without a device")
	}
	if err := m.Compact(nil); err == nil {
		t.Fatal("Compact succeeded without a device")
	}
}

// TestLoadCheckpoint pins the machine-free loader Recover and the lvmd
// restart share: nothing committed is a nil image, a committed
// checkpoint comes back with its header fields, and one of another
// segment size is refused — which Recover (and only Recover) degrades
// to a full replay.
func TestLoadCheckpoint(t *testing.T) {
	sys, seg, ls, p, base, disk, m := rig(t, nil)
	if img, rr, err := LoadCheckpoint(disk, 0, segSize); img != nil || rr != (RecoverResult{}) || err != nil {
		t.Fatalf("empty disk: img=%d bytes rr=%+v err=%v", len(img), rr, err)
	}

	txn(sys, p, base, 1, map[uint32]uint32{0x100: 11})
	m.SetEpoch(7)
	if err := m.Checkpoint(p.CPU); err != nil {
		t.Fatal(err)
	}
	watermark := sys.K.LogAppendOffset(ls)
	txn(sys, p, base, 2, map[uint32]uint32{0x100: 12})

	img, rr, err := LoadCheckpoint(disk, 0, segSize)
	if err != nil {
		t.Fatal(err)
	}
	want := RecoverResult{FromCheckpoint: true, Seq: 1, Epoch: 7, Start: watermark, Watermark: uint64(watermark)}
	if rr != want {
		t.Fatalf("rr = %+v, want %+v", rr, want)
	}
	if uint32(len(img)) != segSize || binary.LittleEndian.Uint32(img[0x100:]) != 11 {
		t.Fatalf("image: %d bytes, [0x100]=%d", len(img), binary.LittleEndian.Uint32(img[0x100:]))
	}

	if _, _, err := LoadCheckpoint(disk, 0, segSize/2); !errors.Is(err, errImageSize) {
		t.Fatalf("half-size segment: err = %v, want the size mismatch", err)
	}
	small := core.NewNamedSegment(sys, "small", segSize/2, nil)
	rr, err = Recover(sys, RecoverOptions{Disk: disk, Log: ls, Data: seg, Dst: small, MarkerLimit: markerLimit})
	if err != nil || rr.FromCheckpoint || rr.Start != 0 || rr.Txns != 2 {
		t.Fatalf("Recover over a mismatched checkpoint: rr=%+v err=%v, want a full replay", rr, err)
	}
}

// FuzzLoadCheckpoint feeds LoadCheckpoint two arbitrary slot headers and
// seal words over slot images tagged with their slot number. It must
// never panic, never elect a slot whose seal is not seq|MarkerCommit or
// whose image is not size bytes, and of two valid slots elect the higher
// generation.
func FuzzLoadCheckpoint(f *testing.F) {
	const size = 64
	le := binary.LittleEndian
	hdr := func(seq, imgLen uint32, watermark, cutBase uint64) []byte {
		h := make([]byte, hdrSeal)
		le.PutUint32(h, Magic)
		le.PutUint32(h[hdrSeq:], seq)
		le.PutUint32(h[hdrImgLen:], imgLen)
		le.PutUint32(h[hdrEpoch:], 7)
		le.PutUint64(h[hdrWatermark:], watermark)
		le.PutUint64(h[hdrCutBase:], cutBase)
		return h
	}
	seal := func(seq uint32) uint32 { return seq | recovery.MarkerCommit }
	f.Add(hdr(1, size, 64, 0), seal(1), hdr(2, size, 256, 64), seal(2))
	f.Add(hdr(5, size, 64, 0), seal(5), hdr(4, size, 32, 0), seal(4))
	f.Add(hdr(3, size, 64, 0), uint32(0), hdr(2, size, 32, 0), seal(2))     // newer slot torn before its seal
	f.Add(hdr(3, 2*size, 64, 0), seal(3), hdr(2, size, 32, 0), seal(2))     // newer slot of another size
	f.Add(hdr(1, size, 0, 1<<40), seal(1), hdr(2, size, 1<<40, 0), seal(2)) // watermarks behind or far past the cut
	f.Add([]byte{}, uint32(0), []byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, h0 []byte, seal0 uint32, h1 []byte, seal1 uint32) {
		disk := ramdisk.New()
		var seq, imgLen [2]uint32
		var valid [2]bool
		for slot, raw := range [2][]byte{h0, h1} {
			var h [hdrSize]byte
			copy(h[:hdrSeal], raw)
			le.PutUint32(h[hdrSeal:], [2]uint32{seal0, seal1}[slot])
			if err := disk.TryWriteAt(nil, uint64(slot)*ramdisk.BlockSize, h[:]); err != nil {
				t.Fatal(err)
			}
			if err := disk.TryWriteAt(nil, imgOff(0, uint64(slot), size), bytes.Repeat([]byte{byte(slot + 1)}, size)); err != nil {
				t.Fatal(err)
			}
			seq[slot], imgLen[slot] = le.Uint32(h[hdrSeq:]), le.Uint32(h[hdrImgLen:])
			wm, cut := le.Uint64(h[hdrWatermark:]), le.Uint64(h[hdrCutBase:])
			valid[slot] = le.Uint32(h[:]) == Magic && seq[slot] != 0 && imgLen[slot] == size &&
				le.Uint32(h[hdrSeal:]) == seal(seq[slot]) && wm >= cut && wm-cut <= uint64(^uint32(0))
		}
		img, rr, err := LoadCheckpoint(disk, 0, size)
		if img != nil {
			slot := int(img[0]) - 1
			if err != nil || len(img) != size || slot < 0 || slot > 1 || !bytes.Equal(img, bytes.Repeat(img[:1], size)) {
				t.Fatalf("image of %d bytes tagged %d, err %v", len(img), img[0], err)
			}
			if !valid[slot] || rr.Seq != seq[slot] || !rr.FromCheckpoint {
				t.Fatalf("elected slot %d (seq %d, %d-byte image, valid %v) as %+v", slot, seq[slot], imgLen[slot], valid[slot], rr)
			}
		}
		if valid[0] && valid[1] {
			want := max(seq[0], seq[1])
			if err != nil || img == nil || rr.Seq != want {
				t.Fatalf("two valid slots (seq %d, %d): elected %+v, err %v; want seq %d", seq[0], seq[1], rr, err, want)
			}
		}
	})
}
