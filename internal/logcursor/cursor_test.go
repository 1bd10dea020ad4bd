package logcursor

import (
	"reflect"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
)

const segSize = 4 * core.PageSize

// rec builds a valid data record for walker tests.
func rec(off, val uint32, size uint16) Rec {
	return Rec{Off: off, Value: val, Size: size, Valid: true, Data: true}
}

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

func TestWalkerCommittedView(t *testing.T) {
	var applied []Rec
	w := NewWalker(Config{View: Committed, MarkerLimit: 16, End: 160,
		Apply: func(r Rec) { applied = append(applied, r) }})
	feed := []Rec{
		rec(0, 1, 4), // begin 1
		rec(0x100, 11, 4),
		rec(0x104, 0xBEEF, 2),
		rec(0, 1|MarkerCommit, 4), // commit 1
		{Off: 0x500, Value: 9, Size: 4, Valid: true, Data: false}, // foreign
		rec(4, 2, 4),      // begin 2 via a non-zero marker word
		rec(0x200, 22, 4), // never commits
	}
	for _, r := range feed {
		if !w.Feed(r) {
			t.Fatalf("clean record halted the walk: %+v", r)
		}
	}
	st := w.Finish()
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

func TestWalkerBeginDropsUncommittedPredecessor(t *testing.T) {
	n := 0
	w := NewWalker(Config{View: Committed, MarkerLimit: 16,
		Apply: func(Rec) { n++ }})
	w.Feed(rec(0, 1, 4)) // begin 1
	w.Feed(rec(0x100, 11, 4))
	w.Feed(rec(0, 2, 4)) // begin 2: txn 1 never committed
	w.Feed(rec(0x104, 22, 4))
	w.Feed(rec(0, 2|MarkerCommit, 4))
	st := w.Finish()
	if n != 1 || st.Applied != 1 || st.IncompleteTail != 0 || st.Txns != 1 {
		t.Fatalf("begin-after-uncommitted: applied %d, %+v", n, st)
	}
}

func TestWalkerNonMonotonicCommit(t *testing.T) {
	w := NewWalker(Config{View: Committed, MarkerLimit: 16})
	w.Feed(rec(0, 5|MarkerCommit, 4))
	w.Feed(rec(0, 3|MarkerCommit, 4)) // regression: counted, LastSeq holds
	w.Feed(rec(0, 5|MarkerCommit, 4)) // equal: not a regression
	st := w.Finish()
	if st.LastSeq != 5 || st.NonMonotonicCommits != 1 || st.Txns != 3 {
		t.Fatalf("non-monotonic accounting: %+v", st)
	}
}

func TestWalkerQuarantinesInvalid(t *testing.T) {
	w := NewWalker(Config{View: Committed, MarkerLimit: 16, End: 160})
	w.Feed(rec(0, 1, 4))
	w.Feed(rec(0x100, 11, 4))
	bad := Rec{Off: 0x300, Value: 5, Size: 7, LogOff: 32, Idx: 2}
	if w.Feed(bad) {
		t.Fatal("invalid record did not halt the walk")
	}
	if w.Feed(rec(0x104, 22, 4)) {
		t.Fatal("halted walker accepted another record")
	}
	st := w.Finish()
	if !st.Quarantined() || st.QuarantinedFrom != 32 || st.QuarantinedBytes != 128 {
		t.Fatalf("quarantine anchor: %+v", st)
	}
	if st.InvalidRecords != 1 || st.IncompleteTail != 1 || st.Applied != 0 {
		t.Fatalf("quarantine counters: %+v", st)
	}
	if st.Bad != bad {
		t.Fatalf("Bad = %+v, want %+v", st.Bad, bad)
	}
	// Scanned counts the damaged record; the post-halt one was refused.
	if st.Scanned != 3 {
		t.Fatalf("scanned %d, want 3", st.Scanned)
	}
}

func TestWalkerSubWordMarkerAreaStoreQuarantines(t *testing.T) {
	w := NewWalker(Config{View: Committed, MarkerLimit: 16, End: 64})
	w.Feed(rec(0, 1, 4))
	if w.Feed(Rec{Off: 4, Value: 9, Size: 2, LogOff: 16, Valid: true, Data: true}) {
		t.Fatal("sub-word marker-area store did not quarantine")
	}
	st := w.Finish()
	if !st.Quarantined() || st.QuarantinedFrom != 16 {
		t.Fatalf("quarantine: %+v", st)
	}
}

func TestWalkerApplyAllView(t *testing.T) {
	var offs []uint32
	w := NewWalker(Config{View: ApplyAll, MarkerLimit: 16,
		Apply: func(r Rec) { offs = append(offs, r.Off) }})
	w.Feed(rec(0, 1, 4)) // markers apply too
	w.Feed(rec(0x100, 11, 4))
	w.Feed(Rec{Off: 4, Value: 9, Size: 2, Valid: true, Data: true}) // not a violation here
	w.Feed(rec(0, 1|MarkerCommit, 4))
	st := w.Finish()
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
	w.Feed(rec(0, 1, 4))
	w.Feed(rec(0x100, 11, 4))
	if st := w.st; st.Scanned != 2 || st.Applied != 0 {
		t.Fatalf("mid-walk stats: %+v", st)
	}
	w.Feed(rec(0, 1|MarkerCommit, 4))
	if st := w.Finish(); st.Applied != 1 || st.Txns != 1 {
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
	w := NewWalker(Config{View: Committed})
	w.Feed(rec(0, 1, 4))
	w.Feed(rec(0x100, 11, 4))
	if st := w.Finish(); st.Applied != 0 || st.IncompleteTail != 2 {
		t.Fatalf("limit-0 walk: %+v", st)
	}
}

// wire encodes records into a packed stream for BytesSource tests.
func wire(recs ...logrec.Record) []byte {
	b := make([]byte, 0, len(recs)*logrec.Size)
	for _, r := range recs {
		var s [logrec.Size]byte
		r.Encode(s[:])
		b = append(b, s[:]...)
	}
	return b
}

func TestBytesSource(t *testing.T) {
	b := wire(
		logrec.Record{Addr: 0, Value: 1, WriteSize: 4},
		logrec.Record{Addr: 0x100, Value: 11, WriteSize: 4},
		logrec.Record{Addr: 0x300, Value: 5, WriteSize: 7}, // invalid
	)
	b = append(b, 0xEE, 0xEE) // trailing partial record: ignored
	src := NewBytesSource(b, segSize)
	if src.End() != 3*logrec.Size {
		t.Fatalf("End() = %d, want %d", src.End(), 3*logrec.Size)
	}
	var got []Rec
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("yielded %d records, want 3", len(got))
	}
	if !got[0].Valid || !got[0].Data || got[0].LogOff != 0 || got[0].Idx != 0 {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[1].Off != 0x100 || got[1].Value != 11 || got[1].LogOff != logrec.Size {
		t.Fatalf("record 1: %+v", got[1])
	}
	if got[2].Valid {
		t.Fatalf("size-7 record classified valid: %+v", got[2])
	}
}

// nextOnly hides a source's concrete type, forcing Run's generic loop.
type nextOnly struct{ s Source }

func (n nextOnly) Next() (Rec, bool) { return n.s.Next() }

// TestRunBytesLoopMatchesGenericLoop pins Run's concrete *BytesSource
// loop to the interface loop: same applied records, same Stats, on a
// clean stream and on one that quarantines mid-transaction.
func TestRunBytesLoopMatchesGenericLoop(t *testing.T) {
	clean := wire(
		logrec.Record{Addr: 0, Value: 1, WriteSize: 4},
		logrec.Record{Addr: 0x100, Value: 11, WriteSize: 4},
		logrec.Record{Addr: 0x102, Value: 0xBEEF, WriteSize: 2},
		logrec.Record{Addr: 0, Value: 1 | MarkerCommit, WriteSize: 4},
		logrec.Record{Addr: 0, Value: 2, WriteSize: 4},
		logrec.Record{Addr: 0x200, Value: 21, WriteSize: 1},
		logrec.Record{Addr: 0, Value: 2 | MarkerCommit, WriteSize: 4},
		logrec.Record{Addr: 0, Value: 3, WriteSize: 4},
		logrec.Record{Addr: 0x300, Value: 31, WriteSize: 4}, // never committed
	)
	damaged := append([]byte(nil), clean...)
	damaged[5*logrec.Size+8] = 3 // bad size inside transaction 2
	for name, b := range map[string][]byte{"clean": clean, "damaged": damaged} {
		walk := func(src Source) ([]Rec, Stats) {
			var got []Rec
			w := NewWalker(Config{View: Committed, MarkerLimit: 16, End: uint32(len(b)),
				Apply: func(r Rec) { got = append(got, r) }})
			return got, Run(src, w)
		}
		fast, fastStats := walk(NewBytesSource(b, segSize))
		slow, slowStats := walk(nextOnly{NewBytesSource(b, segSize)})
		if !reflect.DeepEqual(fast, slow) || fastStats != slowStats {
			t.Fatalf("%s: concrete loop diverges:\n %+v\n %+v", name, fastStats, slowStats)
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

func TestMachineSource(t *testing.T) {
	sys, seg, ls, p, base := machine(t)
	p.Store32(base, 1)
	p.Store32(base+0x100, 11)
	p.Store16(base+0x104, 0xBEEF)
	p.Store8(base+0x107, 0x7F)
	p.Store32(base, 1|MarkerCommit)
	sys.Sync()

	src := NewMachineSource(sys, ls, seg)
	if src.End() != 5*logrec.Size {
		t.Fatalf("End() = %d, want %d", src.End(), 5*logrec.Size)
	}
	st := Run(src, NewWalker(Config{View: Committed, MarkerLimit: 16, End: src.End()}))
	if st.Quarantined() || st.Applied != 3 || st.Txns != 1 || st.LastSeq != 1 {
		t.Fatalf("machine walk: %+v", st)
	}

	// Seek/Offset/SetEnd drive a bounded rewalk.
	src2 := NewMachineSource(sys, ls, seg)
	if err := src2.Seek(logrec.Size); err != nil {
		t.Fatal(err)
	}
	if src2.r.Offset() != logrec.Size {
		t.Fatalf("Offset() = %d", src2.r.Offset())
	}
	src2.SetEnd(2 * logrec.Size)
	n := 0
	for {
		if _, ok := src2.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("bounded rewalk yielded %d records, want 1", n)
	}

	// NewMachineSourceAt walks an explicit window without syncing.
	at := NewMachineSourceAt(sys, ls, seg, logrec.Size, 4*logrec.Size)
	n = 0
	for {
		r, ok := at.Next()
		if !ok {
			break
		}
		if !r.Valid || !r.Data {
			t.Fatalf("windowed record invalid: %+v", r)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("windowed walk yielded %d records, want 3", n)
	}

	// Corrupt a record's WriteSize in the log image: the source must
	// classify it invalid, never panic.
	ls.RawWrite(1*logrec.Size+8, []byte{7, 0})
	src3 := NewMachineSource(sys, ls, seg)
	st = Run(src3, NewWalker(Config{View: Committed, MarkerLimit: 16, End: src3.End()}))
	if !st.Quarantined() || st.QuarantinedFrom != 1*logrec.Size {
		t.Fatalf("corrupt log walk: %+v", st)
	}
}

func TestMachineSourceAndEachData(t *testing.T) {
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
	sys.Sync()

	src := NewMachineSource(sys, ls, seg)
	rec, ok := src.Next()
	if !ok || rec.Off != 0x100 || !rec.Data {
		t.Fatalf("wrapped read: %+v ok=%v", rec, ok)
	}
	rec, ok = src.Next()
	if !ok || !rec.Valid || rec.Data {
		t.Fatalf("foreign record not classified: %+v ok=%v", rec, ok)
	}

	// Wire re-addresses a machine record to its segment offset.
	p.Store32(base+0x200, 22)
	sys.Sync()
	r2 := core.NewLogReader(sys, ls)
	r2.Sync()
	raw, ok := r2.Next()
	if !ok {
		t.Fatal("no record")
	}
	w := Wire(raw)
	if w.Addr != raw.SegOff || w.Value != raw.Value || w.WriteSize != raw.WriteSize {
		t.Fatalf("Wire(%+v) = %+v", raw, w)
	}

	// EachData walks to the end, classifying segment membership, and
	// stops on a callback error.
	p.Store32(base+0x300, 33)
	sys.Sync()
	r3 := core.NewLogReader(sys, ls)
	r3.Sync()
	data, foreign := 0, 0
	err = EachData(r3, seg, func(rec core.Record, isData bool) error {
		if isData {
			data++
		} else {
			foreign++
		}
		return nil
	})
	if err != nil || data != 3 || foreign != 1 {
		t.Fatalf("EachData: err=%v data=%d foreign=%d", err, data, foreign)
	}
	r4 := core.NewLogReader(sys, ls)
	r4.Sync()
	stop := 0
	sentinel := errSentinel{}
	err = EachData(r4, seg, func(core.Record, bool) error {
		stop++
		return sentinel
	})
	if err != sentinel || stop != 1 {
		t.Fatalf("EachData error stop: err=%v calls=%d", err, stop)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "stop" }

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
