package logcursor

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
)

const segSize = 4 * core.PageSize

func TestIsMarker(t *testing.T) {
	cases := []struct {
		off   uint32
		size  uint16
		limit uint32
		want  bool
	}{
		{0, 4, 16, true},
		{4, 4, 16, true},
		{12, 4, 16, true},
		{16, 4, 16, false}, // at the limit: data
		{0, 2, 16, false},  // sub-word: never a marker
		{0, 1, 16, false},
		{0, 4, 0, false}, // limit 0 disables marker interpretation
	}
	for _, c := range cases {
		if got := IsMarker(c.off, c.size, c.limit); got != c.want {
			t.Errorf("IsMarker(%d, %d, %d) = %v, want %v", c.off, c.size, c.limit, got, c.want)
		}
	}
}

func TestValidWrite(t *testing.T) {
	cases := []struct {
		off  uint32
		size uint16
		want bool
	}{
		{0, 4, true},
		{segSize - 4, 4, true},
		{segSize, 4, false}, // out of bounds
		{2, 4, false},       // unaligned word
		{2, 2, true},
		{3, 2, false}, // unaligned half
		{3, 1, true},
		{0, 0, false}, // sizes the hardware never emits
		{0, 3, false},
		{0, 7, false},
		{0, 8, false},
		{^uint32(0) - 2, 4, false}, // off+size wraps
		{^uint32(0) - 3, 4, false}, // aligned, and off+size wraps to 0
		{^uint32(0) - 1, 2, false},
		{^uint32(0), 1, false},
	}
	for _, c := range cases {
		if got := ValidWrite(c.off, c.size, segSize); got != c.want {
			t.Errorf("ValidWrite(%d, %d, %d) = %v, want %v", c.off, c.size, segSize, got, c.want)
		}
	}
}

// rec builds a wire record for walker tests.
func rec(off, val uint32, size uint16) logrec.Record {
	return logrec.Record{Addr: off, Value: val, WriteSize: size}
}

// wire encodes records into a packed stream.
func wire(recs ...logrec.Record) []byte {
	b := make([]byte, 0, len(recs)*logrec.Size)
	for _, r := range recs {
		var s [logrec.Size]byte
		r.Encode(s[:])
		b = append(b, s[:]...)
	}
	return b
}

// walk runs recs through a walker over cfg as one byte stream.
func walk(cfg Config, recs ...logrec.Record) Stats {
	return Run(NewBytesSource(wire(recs...), segSize), NewWalker(cfg))
}

func TestWalkerCommittedView(t *testing.T) {
	var applied []Rec
	w := NewWalker(Config{View: Committed, MarkerLimit: 16, End: 112,
		Apply: func(r Rec) { applied = append(applied, r) }})
	st := Run(NewMachineBytes(wire(
		rec(0, 1, 4), // begin 1
		rec(0x100, 11, 4),
		rec(0x104, 0xBEEF, 2),
		rec(0, 1|MarkerCommit, 4),  // commit 1
		rec(0x500, 9, foreignSize), // another segment's
		rec(4, 2, 4),               // begin 2 via a non-zero marker word
		rec(0x200, 22, 4),          // never commits
	), 0, segSize), w)
	if st.Quarantined() {
		t.Fatalf("clean walk quarantined: %+v", st)
	}
	if len(applied) != 2 || applied[0].Off != 0x100 || applied[1].Off != 0x104 {
		t.Fatalf("applied %+v, want the two committed writes", applied)
	}
	if st.Scanned != 7 || st.Applied != 2 || st.Skipped != 1 || st.Txns != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.LastSeq != 1 || st.IncompleteTail != 1 {
		t.Fatalf("tail accounting: %+v", st)
	}
}

// TestWalkerForeignInsideTransaction: another segment's records inside
// an open transaction are neither applied at its commit nor counted in
// an incomplete tail, into either sink.
func TestWalkerForeignInsideTransaction(t *testing.T) {
	b := wire(
		rec(0, 1, 4),
		rec(0x100, 11, 4),
		rec(0x500, 9, foreignSize),
		rec(0x104, 12, 4),
		rec(0, 1|MarkerCommit, 4),
		rec(0, 2, 4),
		rec(0x108, 21, 4),
		rec(0x600, 9, foreignSize),
		rec(0x600, 9, foreignSize),
	)
	var offs []uint32
	st := Run(NewMachineBytes(b, 0, segSize), NewWalker(Config{View: Committed, MarkerLimit: 16,
		Apply: func(r Rec) { offs = append(offs, r.Off) }}))
	if !reflect.DeepEqual(offs, []uint32{0x100, 0x104}) || st.Applied != 2 || st.Skipped != 3 || st.IncompleteTail != 1 {
		t.Fatalf("apply walk: applied %#x, %+v", offs, st)
	}
	img := make([]byte, segSize)
	st = Run(NewMachineBytes(b, 0, segSize), NewWalker(Config{View: Committed, MarkerLimit: 16, Image: img}))
	if img[0x100] != 11 || img[0x104] != 12 || img[0x108] != 0 || st.Applied != 2 || st.IncompleteTail != 1 {
		t.Fatalf("image walk: %+v", st)
	}
}

// TestForeignFormQuarantinesOffMachine: only a MachineReader stream has
// foreign records; in a tail mirror or a shipped batch the same bytes
// are damage.
func TestForeignFormQuarantinesOffMachine(t *testing.T) {
	b := wire(rec(0x100, 11, 4), rec(0x500, 9, foreignSize), rec(0x104, 12, 4))
	cfg := Config{View: ApplyAll, End: uint32(len(b))}
	if st := Run(NewBytesSource(b, segSize), NewWalker(cfg)); !st.Quarantined() || st.QuarantinedFrom != logrec.Size || st.Skipped != 0 {
		t.Fatalf("foreign form off the machine: %+v", st)
	}
	st, err := RunReader(bytes.NewReader(b), segSize, NewWalker(cfg))
	if err != nil || !st.Quarantined() || st.Applied != 1 {
		t.Fatalf("foreign form through RunReader: %v %+v", err, st)
	}
	if st := Run(NewMachineBytes(b, 0, segSize), NewWalker(cfg)); st.Quarantined() || st.Skipped != 1 || st.Applied != 2 {
		t.Fatalf("foreign form on the machine: %+v", st)
	}
}

func TestWalkerBeginDropsUncommittedPredecessor(t *testing.T) {
	n := 0
	st := walk(Config{View: Committed, MarkerLimit: 16, Apply: func(Rec) { n++ }},
		rec(0, 1, 4), // begin 1
		rec(0x100, 11, 4),
		rec(0, 2, 4), // begin 2: txn 1 never committed
		rec(0x104, 22, 4),
		rec(0, 2|MarkerCommit, 4))
	if n != 1 || st.Applied != 1 || st.IncompleteTail != 0 || st.Txns != 1 {
		t.Fatalf("begin-after-uncommitted: applied %d, %+v", n, st)
	}
}

func TestWalkerNonMonotonicCommit(t *testing.T) {
	st := walk(Config{View: Committed, MarkerLimit: 16},
		rec(0, 5|MarkerCommit, 4),
		rec(0, 3|MarkerCommit, 4), // regression: counted, LastSeq holds
		rec(0, 5|MarkerCommit, 4)) // equal: not a regression
	if st.LastSeq != 5 || st.NonMonotonicCommits != 1 || st.Txns != 3 {
		t.Fatalf("non-monotonic accounting: %+v", st)
	}
}

func TestWalkerQuarantinesInvalid(t *testing.T) {
	st := walk(Config{View: Committed, MarkerLimit: 16, End: 160},
		rec(0, 1, 4),
		rec(0x100, 11, 4),
		rec(0x300, 5, 7),
		rec(0x104, 22, 4))
	if !st.Quarantined() || st.QuarantinedFrom != 32 || st.QuarantinedBytes != 128 {
		t.Fatalf("quarantine anchor: %+v", st)
	}
	if st.InvalidRecords != 1 || st.IncompleteTail != 1 || st.Applied != 0 {
		t.Fatalf("quarantine counters: %+v", st)
	}
	if bad := (Rec{Off: 0x300, Value: 5, Size: 7, LogOff: 32, Idx: 2}); st.Bad != bad {
		t.Fatalf("Bad = %+v, want %+v", st.Bad, bad)
	}
	// Scanned counts the damaged record; the walk stops there.
	if st.Scanned != 3 {
		t.Fatalf("scanned %d, want 3", st.Scanned)
	}
}

func TestWalkerSubWordMarkerAreaStoreQuarantines(t *testing.T) {
	st := walk(Config{View: Committed, MarkerLimit: 16, End: 64}, rec(0, 1, 4), rec(4, 9, 2))
	if !st.Quarantined() || st.QuarantinedFrom != 16 || !st.Bad.Valid {
		t.Fatalf("quarantine: %+v", st)
	}
}

func TestWalkerApplyAllView(t *testing.T) {
	var offs []uint32
	st := walk(Config{View: ApplyAll, MarkerLimit: 16, Apply: func(r Rec) { offs = append(offs, r.Off) }},
		rec(0, 1, 4), // markers apply too
		rec(0x100, 11, 4),
		rec(4, 9, 2), // not a violation here
		rec(0, 1|MarkerCommit, 4))
	if st.Quarantined() || st.Applied != 4 || len(offs) != 4 {
		t.Fatalf("apply-all: %+v offs=%v", st, offs)
	}
	if st.Txns != 0 || st.LastSeq != 0 {
		t.Fatalf("apply-all bracketed transactions: %+v", st)
	}
}

func TestWalkerDryRunAndStats(t *testing.T) {
	// nil Apply validates and counts only; the counters read mid-walk.
	w := NewWalker(Config{View: Committed, MarkerLimit: 16})
	s := stream{buf: wire(rec(0, 1, 4), rec(0x100, 11, 4)), segSize: segSize}
	w.scan(&s)
	if st := w.st; st.Scanned != 2 || st.Applied != 0 {
		t.Fatalf("mid-walk stats: %+v", st)
	}
	s.buf = append(s.buf, wire(rec(0, 1|MarkerCommit, 4))...)
	w.scan(&s)
	if st := w.finish(s.pending()); st.Applied != 1 || st.Txns != 1 {
		t.Fatalf("dry run: %+v", st)
	}
}

func TestWalkerRefusesTwoSinks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWalker accepted a config with both Apply and Image")
		}
	}()
	NewWalker(Config{Apply: func(Rec) {}, Image: make([]byte, segSize)})
}

func TestWalkerNoMarkerLimitBuffersForever(t *testing.T) {
	// MarkerLimit 0 in the Committed view: nothing ever commits, every
	// data record lands in the incomplete tail.
	if st := walk(Config{View: Committed}, rec(0, 1, 4), rec(0x100, 11, 4)); st.Applied != 0 || st.IncompleteTail != 2 {
		t.Fatalf("limit-0 walk: %+v", st)
	}
}

func TestBytesSource(t *testing.T) {
	b := wire(
		rec(0, 1, 4),
		rec(0x100, 11, 4),
		rec(0x300, 5, 7), // invalid
	)
	b = append(b, 0xEE, 0xEE) // trailing partial record: ignored
	src := NewBytesSource(b, segSize)
	if src.End() != 3*logrec.Size {
		t.Fatalf("End() = %d, want %d", src.End(), 3*logrec.Size)
	}
	var got []Rec
	st := Run(src, NewWalker(Config{View: ApplyAll, End: src.End(), Apply: func(r Rec) { got = append(got, r) }}))
	want := []Rec{
		{Off: 0, Value: 1, Size: 4, LogOff: 0, Idx: 0, Valid: true},
		{Off: 0x100, Value: 11, Size: 4, LogOff: logrec.Size, Idx: 1, Valid: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("applied %+v, want %+v", got, want)
	}
	if st.Scanned != 3 || st.Bad.Valid || st.Bad.Size != 7 || st.QuarantinedFrom != 2*logrec.Size || st.QuarantinedBytes != logrec.Size {
		t.Fatalf("size-7 record: %+v", st)
	}
}

// TestRunBytesLoopMatchesGenericLoop pins Run's byte-stream loop to the
// record-at-a-time reference walk: same applied records, same Stats, on
// a clean stream and on one that quarantines mid-transaction.
func TestRunBytesLoopMatchesGenericLoop(t *testing.T) {
	clean := wire(
		rec(0, 1, 4),
		rec(0x100, 11, 4),
		rec(0x102, 0xBEEF, 2),
		rec(0, 1|MarkerCommit, 4),
		rec(0, 2, 4),
		rec(0x200, 21, 1),
		rec(0, 2|MarkerCommit, 4),
		rec(0, 3, 4),
		rec(0x300, 31, 4), // never committed
	)
	damaged := append([]byte(nil), clean...)
	damaged[5*logrec.Size+8] = 3 // bad size inside transaction 2
	for name, b := range map[string][]byte{"clean": clean, "damaged": damaged} {
		walk := func(run func(*Walker) Stats) ([]Rec, Stats) {
			var got []Rec
			w := NewWalker(Config{View: Committed, MarkerLimit: 16, End: uint32(len(b)),
				Apply: func(r Rec) { got = append(got, r) }})
			return got, run(w)
		}
		fast, fastStats := walk(func(w *Walker) Stats { return Run(NewBytesSource(b, segSize), w) })
		slow, slowStats := walk(func(w *Walker) Stats { return refRun(w, b, segSize, false) })
		if !reflect.DeepEqual(fast, slow) || fastStats != slowStats {
			t.Fatalf("%s: byte loop diverges:\n %+v\n %+v", name, fastStats, slowStats)
		}
		if name == "damaged" && (!fastStats.Quarantined() || fastStats.QuarantinedFrom != 5*logrec.Size ||
			fastStats.Applied != 2 || fastStats.IncompleteTail != 0) {
			t.Fatalf("damaged stats: %+v", fastStats)
		}
		if name == "clean" && (fastStats.Applied != 3 || fastStats.Txns != 2 || fastStats.IncompleteTail != 1) {
			t.Fatalf("clean stats: %+v", fastStats)
		}
	}
}

// machine boots a one-CPU system with a logged data segment.
func machine(t *testing.T) (*core.System, *core.Segment, *core.Segment, *core.Process, core.Addr) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 256})
	seg := core.NewNamedSegment(sys, "data", segSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 16)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, seg, ls, sys.NewProcess(0, as), base
}

// machineWalk walks r's range of ls as writes into seg.
func machineWalk(t *testing.T, r *core.LogReader, seg *core.Segment, cfg Config) Stats {
	t.Helper()
	st, err := RunReader(NewMachineReader(r, seg), segSize, NewWalker(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMachineReader(t *testing.T) {
	sys, seg, ls, p, base := machine(t)
	p.Store32(base, 1)
	p.Store32(base+0x100, 11)
	p.Store16(base+0x104, 0xBEEF)
	p.Store8(base+0x107, 0x7F)
	p.Store32(base, 1|MarkerCommit)
	sys.Sync()

	r := core.NewLogReader(sys, ls)
	if r.End() != 5*logrec.Size {
		t.Fatalf("End() = %d, want %d", r.End(), 5*logrec.Size)
	}
	st := machineWalk(t, r, seg, Config{View: Committed, MarkerLimit: 16, End: r.End()})
	if st.Quarantined() || st.Applied != 3 || st.Txns != 1 || st.LastSeq != 1 {
		t.Fatalf("machine walk: %+v", st)
	}

	// The reader's bytes are the records re-addressed to segment
	// offsets, CPU and timestamp kept.
	raw, got := ls.RawRead(0, 5*logrec.Size), make([]byte, 5*logrec.Size)
	if n, err := io.ReadFull(NewMachineReader(core.NewLogReader(sys, ls), seg), got); err != nil || n != len(got) {
		t.Fatalf("read %d: %v", n, err)
	}
	for i := 0; i < 5; i++ {
		w, l := logrec.Decode(got[i*logrec.Size:]), logrec.Decode(raw[i*logrec.Size:])
		if l.Addr = w.Addr; w != l || w.Addr != []uint32{0, 0x100, 0x104, 0x107, 0}[i] {
			t.Fatalf("record %d: read %+v, logged %+v", i, w, logrec.Decode(raw[i*logrec.Size:]))
		}
	}
	if _, err := NewMachineReader(core.NewLogReader(sys, ls), seg).Read(got[:logrec.Size-1]); err != io.ErrShortBuffer {
		t.Fatalf("read into a short buffer: %v", err)
	}

	// A seek and an end override bound the walk, and anchor it at the
	// reader's offset.
	r2 := core.NewLogReader(sys, ls)
	if err := r2.Seek(logrec.Size); err != nil {
		t.Fatal(err)
	}
	r2.SetEnd(2 * logrec.Size)
	if st := machineWalk(t, r2, seg, Config{View: ApplyAll}); st.Scanned != 1 || st.Applied != 1 {
		t.Fatalf("bounded rewalk: %+v", st)
	}
	r3 := core.NewLogReaderAt(sys, ls, logrec.Size, 4*logrec.Size)
	if st := machineWalk(t, r3, seg, Config{View: Committed, MarkerLimit: 16, End: 4 * logrec.Size}); st.Scanned != 3 || st.IncompleteTail != 3 {
		t.Fatalf("windowed walk: %+v", st)
	}

	// Corrupt a record's WriteSize in the log image: the walk must
	// quarantine at that record's log offset, never panic.
	ls.RawWrite(1*logrec.Size+8, []byte{7, 0})
	r4 := core.NewLogReader(sys, ls)
	st = machineWalk(t, r4, seg, Config{View: Committed, MarkerLimit: 16, End: r4.End()})
	if !st.Quarantined() || st.QuarantinedFrom != 1*logrec.Size || st.Bad.Valid {
		t.Fatalf("corrupt log walk: %+v", st)
	}
	r5 := core.NewLogReader(sys, ls)
	if err := r5.Seek(logrec.Size); err != nil {
		t.Fatal(err)
	}
	if st := machineWalk(t, r5, seg, Config{View: ApplyAll, End: r5.End()}); st.QuarantinedFrom != 1*logrec.Size {
		t.Fatalf("quarantine anchor past a seek: %+v", st)
	}
}

func TestMachineReaderForeignAndAppendData(t *testing.T) {
	sys, seg, ls, p, base := machine(t)
	other := core.NewNamedSegment(sys, "other", segSize, nil)
	reg2 := core.NewStdRegion(sys, other)
	if err := reg2.Log(ls); err != nil { // both segments share the log
		t.Fatal(err)
	}
	as2 := sys.NewAddressSpace()
	base2, err := reg2.Bind(as2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := sys.NewProcess(0, as2)
	p.Store32(base+0x100, 11)
	p2.Store32(base2+0x400, 44) // lands in the shared log, foreign to seg
	p.Store32(base+0x200, 22)
	p.Store32(base+0x300, 33)
	sys.Sync()

	got := make([]byte, 4*logrec.Size)
	if _, err := io.ReadFull(NewMachineReader(core.NewLogReader(sys, ls), seg), got); err != nil {
		t.Fatal(err)
	}
	if f := logrec.Decode(got[logrec.Size:]); f.Addr != 0x400 || f.Value != 44 || f.WriteSize != foreignSize {
		t.Fatalf("foreign record read as %+v", f)
	}
	r := core.NewLogReader(sys, ls)
	if st := machineWalk(t, r, seg, Config{View: ApplyAll, End: r.End()}); st.Quarantined() || st.Skipped != 1 || st.Applied != 3 {
		t.Fatalf("walk with a foreign record: %+v", st)
	}

	// WalkLog hands each record to apply or skip in log order, leaves
	// the reader at its end and keeps its buffer; the invalid record that
	// quarantines the walk goes to neither.
	var buf []byte
	trace := func() (string, Stats) {
		r := core.NewLogReader(sys, ls)
		got := ""
		st := WalkLog(&buf, r, seg, func(rec Rec) { got += fmt.Sprintf("a%x ", rec.Off) }, func() { got += "s " })
		if r.Offset() != r.End() {
			t.Fatalf("WalkLog left the reader at %d of %d", r.Offset(), r.End())
		}
		return got, st
	}
	if got, st := trace(); got != "a100 s a200 a300 " || st.Skipped != 1 || st.Applied != 3 || cap(buf) != 4*logrec.Size {
		t.Fatalf("WalkLog: %q, %+v, buffer %d", got, st, cap(buf))
	}
	ls.RawWrite(2*logrec.Size+8, []byte{7, 0})
	if got, st := trace(); got != "a100 s " || st.QuarantinedFrom != 2*logrec.Size {
		t.Fatalf("WalkLog over a damaged record: %q, %+v", got, st)
	}
	ls.RawWrite(2*logrec.Size+8, []byte{4, 0})

	// AppendData emits data records only, in wire form, up to max.
	r = core.NewLogReader(sys, ls)
	out, n := AppendData([]byte("x"), r, seg, 2)
	if n != 2 || len(out) != 1+2*logrec.Size || r.Offset() != 3*logrec.Size {
		t.Fatalf("AppendData(max 2): n=%d len=%d offset=%d", n, len(out), r.Offset())
	}
	if w := logrec.Decode(out[1+logrec.Size:]); w.Addr != 0x200 || w.Value != 22 || w.WriteSize != 4 {
		t.Fatalf("second data record: %+v", w)
	}
	out, n = AppendData(out[:0], r, seg, 5)
	if n != 1 || logrec.Decode(out).Addr != 0x300 || r.Offset() != 4*logrec.Size {
		t.Fatalf("AppendData to the end: n=%d offset=%d", n, r.Offset())
	}
	if out, n = AppendData(out[:0], r, seg, 5); n != 0 || len(out) != 0 {
		t.Fatalf("AppendData at the end: n=%d", n)
	}
}

// BenchmarkRunBytes times the restart path's walk: a packed stream of
// 64-record committed transactions through Run's *BytesSource loop, into
// each sink — an Apply closure, and an Image the walk stores into itself.
func BenchmarkRunBytes(b *testing.B) {
	const segSize, txns, stores = 1 << 18, 1024, 62
	var buf [logrec.Size]byte
	stream := make([]byte, 0, txns*(stores+2)*logrec.Size)
	put := func(off, val uint32) {
		logrec.Record{Addr: off, Value: val, WriteSize: 4}.Encode(buf[:])
		stream = append(stream, buf[:]...)
	}
	for t := uint32(1); t <= txns; t++ {
		put(0, t)
		for j := uint32(0); j < stores; j++ {
			put(16+((t*stores+j)*4)%(segSize-16), t)
		}
		put(0, t|MarkerCommit)
	}
	img := make([]byte, segSize)
	for _, sink := range []struct {
		name string
		cfg  Config
	}{
		{"apply", Config{Apply: func(r Rec) { img[r.Off] = byte(r.Value) }}},
		{"image", Config{Image: img}},
	} {
		b.Run(sink.name, func(b *testing.B) {
			cfg := sink.cfg
			cfg.View, cfg.MarkerLimit, cfg.End = Committed, 16, uint32(len(stream))
			b.SetBytes(int64(len(stream)))
			for i := 0; i < b.N; i++ {
				if st := Run(NewBytesSource(stream, segSize), NewWalker(cfg)); st.Applied != txns*stores {
					b.Fatalf("applied %d", st.Applied)
				}
			}
		})
	}
}
