package logcursor

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"lvm/internal/logrec"
)

// fuzzStream turns fuzz bytes into a wire-record stream, three bytes per
// record: the first picks the kind, the other two its offset and value.
// Kinds cover begin and commit markers (commit sequences in any order),
// word, halfword and byte stores (anywhere, or in the segment's last
// word), sub-word stores into the marker area, bad sizes, raw offsets
// (misaligned or out of range), and MachineReader's foreign form.
// torn%16 bytes of a partial final record follow.
func fuzzStream(ops []byte, torn uint8) []byte {
	var out []byte
	var buf [logrec.Size]byte
	for i := 0; i+3 <= len(ops); i += 3 {
		a, v := uint32(ops[i+1]), uint32(ops[i+2])
		var r logrec.Record
		switch ops[i] % 13 {
		case 0:
			r = logrec.Record{Addr: a % 4 * 4, Value: v, WriteSize: 4}
		case 1:
			r = logrec.Record{Addr: a % 4 * 4, Value: v | MarkerCommit, WriteSize: 4}
		case 2, 3, 4:
			r = logrec.Record{Addr: 16 + a*4, Value: v<<8 | a, WriteSize: 4}
		case 5:
			r = logrec.Record{Addr: 16 + a*2, Value: v, WriteSize: 2}
		case 6:
			r = logrec.Record{Addr: 16 + a, Value: v, WriteSize: 1}
		case 7:
			r = logrec.Record{Addr: a % 16 &^ 1, Value: v, WriteSize: 2 - uint16(a%2)}
		case 8:
			r = logrec.Record{Addr: 16 + a*4, Value: v, WriteSize: uint16(v % 9)}
		case 9:
			r = logrec.Record{Addr: a<<8 | v, Value: v, WriteSize: 4}
		case 10:
			size := uint32(1) << (v % 3)
			r = logrec.Record{Addr: segSize - 4 + a%4&^(size-1), Value: v<<16 | a<<8 | v, WriteSize: uint16(size)}
		case 11:
			r = logrec.Record{Addr: a<<8 | v, Value: v, WriteSize: foreignSize}
		default:
			r = logrec.Record{Addr: 16 + a*4, Value: v, WriteSize: 4}
		}
		r.Encode(buf[:])
		out = append(out, buf[:]...)
	}
	return append(out, bytes.Repeat([]byte{0xA5}, int(torn%logrec.Size))...)
}

// The record-at-a-time walk the byte-stream scan replaced — Walker.feed
// over the records BytesSource.Next decoded one by one — kept as the
// reference FuzzRunChunked and TestRunBytesLoopMatchesGenericLoop pin
// the scan to.

// refWalker is a Walker driven one record at a time, its open
// transaction buffered as decoded records.
type refWalker struct {
	*Walker
	batch []Rec
}

// feed consumes one record; data is false for another segment's. It
// reports false once the walk has halted.
func (w *refWalker) feed(r *Rec, data bool) bool {
	if w.halted {
		return false
	}
	w.st.Scanned++
	if !r.Valid {
		w.quarantine(r, len(w.batch))
		return false
	}
	if !data {
		w.st.Skipped++
		return true
	}
	if w.cfg.View == Committed && w.cfg.MarkerLimit > 0 && r.Off < w.cfg.MarkerLimit {
		if r.Size != 4 {
			w.quarantine(r, len(w.batch))
			return false
		}
		if r.Value&MarkerCommit != 0 {
			w.commit(r.Value &^ MarkerCommit)
			for i := range w.batch {
				w.apply(&w.batch[i])
			}
			w.st.Applied += len(w.batch)
		}
		w.batch = w.batch[:0]
		return true
	}
	if w.cfg.View == ApplyAll {
		w.apply(r)
		w.st.Applied++
		return true
	}
	w.batch = append(w.batch, *r)
	return true
}

// apply hands r to the walk's sink.
func (w *refWalker) apply(r *Rec) {
	if w.cfg.Image != nil {
		put(w.cfg.Image, r.Off, r.Value, r.Size)
	} else if w.cfg.Apply != nil {
		w.cfg.Apply(*r)
	}
}

// refNext decodes the record at b[*pos:] and advances past it. On a
// machine stream the foreign form is a valid record of another segment;
// on any other it fails ValidWrite like any bad size.
func refNext(b []byte, pos *int, segSize uint32, machine bool) (r Rec, data, ok bool) {
	if *pos+logrec.Size > len(b) {
		return Rec{}, false, false
	}
	d := logrec.Decode(b[*pos:])
	r = Rec{Off: d.Addr, Value: d.Value, Size: d.WriteSize, LogOff: uint32(*pos), Idx: *pos / logrec.Size}
	r.Valid, data = ValidWrite(r.Off, r.Size, segSize), true
	if machine && r.Size == foreignSize {
		r.Valid, data = true, false
	}
	*pos += logrec.Size
	return r, data, true
}

// refRun walks b record by record through w.
func refRun(w *Walker, b []byte, segSize uint32, machine bool) Stats {
	rw := &refWalker{Walker: w}
	for pos := 0; ; {
		r, data, ok := refNext(b, &pos, segSize, machine)
		if !ok || !rw.feed(&r, data) {
			break
		}
	}
	return rw.finish(len(rw.batch))
}

// splitReader yields b in pieces whose lengths the fuzzer picks.
type splitReader struct {
	b    []byte
	cuts []byte
	i    int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := len(r.b)
	if len(r.cuts) > 0 {
		n = int(r.cuts[r.i%len(r.cuts)])
		r.i++
	}
	n = min(n, len(p), len(r.b))
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

var errRead = errors.New("read failed")

// runChunked is RunReader's loop over r from a first buffer of size
// bytes, walking a MachineReader's stream when machine is set.
func runChunked(w *Walker, r io.Reader, machine bool, size int) (Stats, error) {
	return w.run(r, stream{segSize: segSize, machine: machine}, size)
}

// walkWith runs one walk over a fresh walker and returns what it applied.
func walkWith(view View, lim, end uint32, run func(*Walker) (Stats, error)) ([]Rec, Stats, error) {
	var got []Rec
	w := NewWalker(Config{View: view, MarkerLimit: lim, End: end,
		Apply: func(r Rec) { got = append(got, r) }})
	st, err := run(w)
	return got, st, err
}

// walkImage runs one walk over a fresh walker whose sink is a zero
// segment image, and returns the image.
func walkImage(view View, lim, end uint32, run func(*Walker) (Stats, error)) ([]byte, Stats, error) {
	img := make([]byte, segSize)
	st, err := run(NewWalker(Config{View: view, MarkerLimit: lim, End: end, Image: img}))
	return img, st, err
}

// imageOf applies recs in order to a zero segment image, byte by byte.
func imageOf(recs []Rec) []byte {
	img := make([]byte, segSize)
	for _, r := range recs {
		for k := range uint32(r.Size) {
			img[r.Off+k] = byte(r.Value >> (8 * k))
		}
	}
	return img
}

// FuzzRunChunked pins the byte-stream walk to the record-at-a-time
// reference (refRun). Each stream is walked in every view, both as a
// plain stream and as one MachineReader produced, three ways — the
// reference, Run over one *BytesSource, and RunReader's loop behind
// readers that split it differently, at the real chunk size and from a
// buffer of bufSize bytes, small enough that shifting and growing happen
// on every few records. Every walk runs into both sinks: with Apply it
// must get the reference's records, with Image it must write them,
// applied in order to a zero image, and either way it must return the
// reference's Stats. A reader failing after failAt bytes must surface its
// error and match the reference walk of the bytes before it.
func FuzzRunChunked(f *testing.F) {
	txn := []byte{
		0, 0, 1, // begin 1
		2, 5, 11, // word store
		5, 9, 12, // halfword store
		6, 3, 13, // byte store
		1, 0, 1, // commit 1
		0, 1, 2, // begin 2 via marker word 4
		2, 7, 21,
		1, 1, 2, // commit 2
	}
	with := func(tail ...byte) []byte { return append(append([]byte{}, txn...), tail...) }
	f.Add(txn, uint8(0), []byte{5, 17, 3}, uint16(100), uint8(40))
	f.Add(txn, uint8(7), []byte{16}, uint16(0xFFFF), uint8(16))                         // torn final record
	f.Add(with(0, 0, 3, 2, 4, 4, 1, 0, 1), uint8(0), []byte{1}, uint16(200), uint8(1))  // non-monotone commit
	f.Add(with(0, 0, 4, 2, 1, 1, 7, 2, 9), uint8(0), []byte{33}, uint16(40), uint8(50)) // sub-word marker-area store
	f.Add(with(0, 0, 4, 2, 1, 1, 8, 3, 7), uint8(3), []byte{}, uint16(120), uint8(8))   // bad size mid-transaction
	f.Add(with(9, 0xFF, 0xFF), uint8(0), []byte{2, 250}, uint16(8), uint8(255))         // out of range
	// A word store in the segment's last word, then a byte and a
	// halfword store over parts of it.
	f.Add(with(0, 0, 3, 10, 0, 0x35, 10, 3, 0x30, 10, 1, 0x31, 1, 0, 3),
		uint8(0), []byte{7, 3}, uint16(300), uint8(20))
	// Foreign records inside a committed transaction, between two, and
	// inside the open one at the end.
	f.Add(with(11, 1, 1, 0, 0, 3, 2, 1, 1, 11, 5, 5, 2, 2, 2, 1, 0, 3, 11, 3, 3, 0, 0, 4, 2, 4, 4, 11, 6, 6),
		uint8(0), []byte{5, 9}, uint16(250), uint8(24))
	f.Fuzz(func(t *testing.T, ops []byte, torn uint8, cuts []byte, failAt uint16, bufSize uint8) {
		if len(ops) > 3<<10 {
			ops = ops[:3<<10]
		}
		for i := range cuts {
			cuts[i] = max(cuts[i], 1)
		}
		stream := fuzzStream(ops, torn)
		end := uint32(len(stream))
		readers := map[string]func() io.Reader{
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
			"data-eof": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
			"split":    func() io.Reader { return &splitReader{b: stream, cuts: cuts} },
		}
		sizes := []int{chunkSize, 1 + int(bufSize)}
		for _, c := range []struct {
			name    string
			view    View
			lim     uint32
			machine bool
		}{
			{"committed", Committed, 16, false}, {"apply-all", ApplyAll, 16, false}, {"no-markers", Committed, 0, false},
			{"machine/committed", Committed, 16, true}, {"machine/apply-all", ApplyAll, 16, true},
		} {
			source := NewBytesSource
			if c.machine {
				source = func(b []byte, segSize uint32) *BytesSource { return NewMachineBytes(b, 0, segSize) }
			}
			reference := func(b []byte) ([]Rec, Stats) {
				got, st, _ := walkWith(c.view, c.lim, end, func(w *Walker) (Stats, error) {
					return refRun(w, b, segSize, c.machine), nil
				})
				return got, st
			}
			// walk runs run into each sink, fails unless both walks match
			// the reference, and returns their errors.
			walk := func(what string, want []Rec, wantSt Stats, run func(*Walker) (Stats, error)) []error {
				t.Helper()
				got, st, err := walkWith(c.view, c.lim, end, run)
				if st != wantSt || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: Apply walk diverges from the reference (err %v):\n got %+v\nwant %+v", c.name, what, err, st, wantSt)
				}
				img, st, imgErr := walkImage(c.view, c.lim, end, run)
				if st != wantSt {
					t.Fatalf("%s/%s: Image walk's stats diverge from the reference (err %v):\n got %+v\nwant %+v", c.name, what, imgErr, st, wantSt)
				}
				if wantImg := imageOf(want); !bytes.Equal(img, wantImg) {
					i := 0
					for img[i] == wantImg[i] {
						i++
					}
					t.Fatalf("%s/%s: Image walk wrote %#x at offset %d; the reference's records write %#x", c.name, what, img[i], i, wantImg[i])
				}
				return []error{err, imgErr}
			}
			want, wantSt := reference(stream)
			walk("reference", want, wantSt, func(w *Walker) (Stats, error) {
				return refRun(w, stream, segSize, c.machine), nil
			})
			walk("Run", want, wantSt, func(w *Walker) (Stats, error) {
				return Run(source(stream, segSize), w), nil
			})
			for name, open := range readers {
				for _, size := range sizes {
					what := fmt.Sprintf("RunReader/%s/%d", name, size)
					for _, err := range walk(what, want, wantSt, func(w *Walker) (Stats, error) {
						return runChunked(w, open(), c.machine, size)
					}) {
						if err != nil {
							t.Fatalf("%s/%s: %v", c.name, what, err)
						}
					}
				}
			}
			cut := int(failAt) % (len(stream) + 1)
			want, wantSt = reference(stream[:cut])
			for _, size := range sizes {
				what := fmt.Sprintf("read error at %d/%d", cut, size)
				for _, err := range walk(what, want, wantSt, func(w *Walker) (Stats, error) {
					r := io.MultiReader(&splitReader{b: stream[:cut], cuts: cuts}, iotest.ErrReader(errRead))
					return runChunked(w, r, c.machine, size)
				}) {
					if !errors.Is(err, errRead) && (err != nil || !wantSt.Quarantined()) {
						t.Fatalf("%s/%s: RunReader returned %v", c.name, what, err)
					}
				}
			}
		}
	})
}
