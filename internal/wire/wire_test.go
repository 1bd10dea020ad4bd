package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"lvm/internal/logrec"
)

// goldenMsgs are the values behind testdata/frames.golden: one frame of
// every type, every field non-zero. The hex was produced by the codecs
// this package replaced, except commit's, which gained its writes tail
// after them; it pins wire version 4 byte for byte.
func goldenMsgs() map[string]Msg {
	const s64, e32, z32, t64 = 0x0102030405060708, 0x11121314, 0x21222324, 0x3132333435363738
	recs := make([]byte, 2*logrec.Size)
	for i := range recs {
		recs[i] = byte(i + 1)
	}
	return map[string]Msg{
		"hello":      &Hello{LastSeq: s64, Epoch: e32, SegSize: z32, Flags: HelloObserver},
		"welcome":    &Welcome{StartSeq: s64, Epoch: e32, SegSize: z32},
		"batch":      &Batch{BaseSeq: 0x100, EndSeq: 0x103, Count: 2, Records: recs},
		"ack":        &Ack{Seq: s64},
		"snapshot":   &Snapshot{CoverSeq: s64, SegSize: 0x1000, Off: 0x800, Data: []byte{0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8}},
		"lease":      &Beat{Kind: BeatRenew, Epoch: e32, Seq: s64, TTL: t64},
		"beatack":    &BeatAck{Seq: t64},
		"open":       &Open{SegID: s64},
		"openResp":   &OpenResp{SegID: s64, SlotOff: e32, SlotSize: z32, ArenaSize: 0x31323334, Status: 5, Shard: 3},
		"commit":     &Commit{SegID: s64, ClientSeq: t64, Writes: AppendWrite(AppendWrite(nil, e32, z32), z32, e32)},
		"commitResp": &CommitResp{SegID: s64, ClientSeq: t64, ShardSeq: e32, Status: 6},
		"read":       &Read{SegID: s64, Off: e32, N: z32},
		"readResp":   &ReadResp{SegID: s64, Off: e32, Status: 1, Data: []byte{0xB1, 0xB2, 0xB3, 0xB4}},
		"subscribe":  &Subscribe{Shard: e32},
		"stats":      &Stats{},
		"statsResp":  &StatsResp{JSON: []byte(`{"refused":7}`)},
	}
}

// goldenFrames reads testdata/frames.golden: "name hex" per line.
func goldenFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	f, err := os.Open("testdata/frames.golden")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		b, err := hex.DecodeString(h)
		if !ok || err != nil {
			tb.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		out[name] = b
	}
	return out
}

// TestFrameGolden is the wire-compatibility pin: every frame type
// encodes to the checked-in bytes and decodes back to the same value.
func TestFrameGolden(t *testing.T) {
	if Version != 4 {
		t.Fatalf("Version = %d; the golden frames are version 4", Version)
	}
	msgs, frames := goldenMsgs(), goldenFrames(t)
	types := 0
	for typ, e := range table {
		if e.new == nil {
			continue
		}
		types++
		if got := e.new().Type(); int(got) != typ {
			t.Errorf("table[%d] (%s) builds a type-%d payload", typ, e.name, got)
		}
		if frames[e.name] == nil {
			t.Errorf("no golden frame for %s", e.name)
		}
	}
	if types != 16 || len(frames) != types || len(msgs) != types {
		t.Fatalf("%d table types, %d golden frames, %d golden values; want 16 each", types, len(frames), len(msgs))
	}
	for name, want := range msgs {
		frame := frames[name]
		if got := Encode(want); !bytes.Equal(got, frame) {
			t.Errorf("%s encodes to\n%x\nwant\n%x", name, got, frame)
		}
		got, err := ReadMsg(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %+v (err %v), want %+v", name, got, err, want)
		}
	}
}

func TestCorruptFrameDetected(t *testing.T) {
	frame := Encode(&Ack{Seq: 9})

	// Flip a payload bit: CRC must catch it.
	bad := append([]byte(nil), frame...)
	bad[HeaderSize] ^= 0x40
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v", err)
	}

	// Bad magic.
	bad = append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}

	// Unsupported version.
	bad = append([]byte(nil), frame...)
	bad[4] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: err = %v", err)
	}

	// Oversize declared length must not allocate; it must reject.
	bad = append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[8:], MaxPayload+1)
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize: err = %v", err)
	}

	// Torn frame: header promises more payload than arrives.
	if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn: err = %v", err)
	}
}

// payload strips m's frame down to the bytes Decode sees.
func payload(m Msg) []byte {
	f := Encode(m)
	return f[HeaderSize : len(f)-CRCSize]
}

func TestBatchValidation(t *testing.T) {
	// Count disagreeing with the record bytes.
	p := payload(&Batch{BaseSeq: 0, EndSeq: 2, Count: 2, Records: make([]byte, logrec.Size)})
	if _, err := Decode(TypeBatch, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count mismatch: err = %v", err)
	}
	// Sequence range too small for the record count.
	p = payload(&Batch{BaseSeq: 5, EndSeq: 6, Count: 2, Records: make([]byte, 2*logrec.Size)})
	if _, err := Decode(TypeBatch, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad range: err = %v", err)
	}
	// Shorter than the fixed fields.
	if _, err := Decode(TypeBatch, p[:19]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: err = %v", err)
	}
}

func TestCommitValidation(t *testing.T) {
	// A writes tail that is not whole (off, val) pairs.
	p := payload(&Commit{SegID: 1, ClientSeq: 2, Writes: make([]byte, 2*WriteSize+3)})
	if _, err := Decode(TypeCommit, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ragged writes tail: err = %v", err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	// Empty chunk and chunk escaping the segment are structural damage.
	p := payload(&Snapshot{CoverSeq: 1, SegSize: 4096, Off: 512})
	if _, err := Decode(TypeSnapshot, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty chunk: err = %v", err)
	}
	p = payload(&Snapshot{CoverSeq: 1, SegSize: 4096, Off: 4000, Data: make([]byte, 100)})
	if _, err := Decode(TypeSnapshot, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-segment chunk: err = %v", err)
	}
}

func TestBeatRoundTrip(t *testing.T) {
	want := &Beat{Kind: BeatRenew, Epoch: 7, Seq: 42, TTL: 5_000_000}
	got, err := Decode(TypeLease, payload(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("beat round trip: %+v != %+v", got, want)
	}
	if _, err := Decode(TypeLease, payload(want)[1:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short beat payload: err = %v", err)
	}
	bad := payload(want)
	bad[0] = 9
	if _, err := Decode(TypeLease, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad beat kind error = %v, want ErrCorrupt", err)
	}
}

// FuzzFrame feeds arbitrary bytes through ReadFrame and the table's
// decoder for the frame's type: nothing panics, any flipped payload bit
// of an accepted frame is ErrCorrupt, and an accepted payload re-encodes
// and decodes to the same value.
func FuzzFrame(f *testing.F) {
	for _, frame := range goldenFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, p, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			return
		}
		flipped := append([]byte(nil), frame...)
		bits := 8 * len(p)
		for i := 0; i < bits; i += 1 + bits/64 {
			flipped[HeaderSize+i/8] ^= 1 << (i % 8)
			if _, _, err := ReadFrame(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload bit %d flipped: err = %v, want ErrCorrupt", i, err)
			}
			flipped[HeaderSize+i/8] ^= 1 << (i % 8)
		}
		m, err := Decode(typ, p)
		if err != nil || m == nil {
			return
		}
		if m.Type() != typ {
			t.Fatalf("type-%d payload decoded as type %d", typ, m.Type())
		}
		again, err := ReadMsg(bytes.NewReader(Encode(m)))
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip: %+v != %+v", again, m)
		}
	})
}
