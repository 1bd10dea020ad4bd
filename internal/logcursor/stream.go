package logcursor

import (
	"encoding/binary"
	"io"

	"lvm/internal/logrec"
)

// chunkSize is RunReader's refill unit: one read per 16 K records, and a
// walk's memory is this buffer, not the stream.
const chunkSize = 256 << 10

// stream is the walk's position in a packed stream of 16-byte wire
// records (logrec's layout, Addr already a data-segment offset) held in
// one buffer: buf[0] is stream offset base and record ordinal idx, pos is
// the next record to scan, and in the Committed view buf[open:pos] are
// the open transaction's records — validated once, kept as bytes, and
// decoded again only to apply them at the commit marker. machine marks a
// stream MachineReader produced, the one kind whose foreign records are
// skipped; foreign counts those inside buf[open:pos].
type stream struct {
	buf       []byte
	segSize   uint32
	base      uint32
	idx       int
	pos, open int
	machine   bool
	foreign   int
}

// rec decodes the record at buf[p:], whose validity the caller knows. It
// reads only the three wire fields the cursor uses, in place: a full
// logrec.Decode costs about as much again per record. The walk hands the
// result straight to Apply: a local copy with a field set afterwards is
// moved through the stack by a wide load over narrow stores, a
// store-forwarding stall that doubled the committed walk's cost.
func (s *stream) rec(p int, valid bool) Rec {
	b := s.buf[p : p+logrec.Size : p+logrec.Size]
	return Rec{
		Off:    binary.LittleEndian.Uint32(b[0:]),
		Value:  binary.LittleEndian.Uint32(b[4:]),
		Size:   binary.LittleEndian.Uint16(b[8:]),
		LogOff: s.base + uint32(p),
		Idx:    s.idx + p/logrec.Size,
		Valid:  valid,
	}
}

// pending is how many records the open transaction holds.
func (s *stream) pending() int { return (s.pos-s.open)/logrec.Size - s.foreign }

// scan is the one walk loop: every whole record of buf[pos:] through w.
// It stops at the end of the buffer (a partial record waits for the next
// refill) or at the first record that quarantines the walk. With an
// Image sink it stores each applied write from the buffer's bytes; only
// Apply gets a Rec.
func (w *Walker) scan(s *stream) {
	committed, limit := w.cfg.View == Committed, w.cfg.MarkerLimit
	img, apply := w.cfg.Image, w.cfg.Apply
	for ; s.pos+logrec.Size <= len(s.buf); s.pos += logrec.Size {
		b := s.buf[s.pos : s.pos+logrec.Size : s.pos+logrec.Size]
		off, size := binary.LittleEndian.Uint32(b[0:]), binary.LittleEndian.Uint16(b[8:])
		w.st.Scanned++
		valid := ValidWrite(off, size, s.segSize)
		if !valid || committed && off < limit && size != 4 {
			if s.machine && size == foreignSize {
				// Another segment's record, in the log this one shares.
				w.st.Skipped++
				if s.open == s.pos {
					s.open += logrec.Size
				} else {
					s.foreign++
				}
				continue
			}
			// An invalid record, or a sub-word store into the marker
			// area: no writer emits one, so it can only be damage, and
			// taking it for a marker or for data would corrupt the
			// transaction bracketing.
			r := s.rec(s.pos, valid)
			w.quarantine(&r, s.pending())
			return
		}
		if !committed {
			if img != nil {
				put(img, off, binary.LittleEndian.Uint32(b[4:]), size)
			} else if apply != nil {
				apply(s.rec(s.pos, true))
			}
			w.st.Applied++
			s.open = s.pos + logrec.Size
			continue
		}
		if off >= limit {
			continue // buffered: it stays in buf[open:pos]
		}
		if val := binary.LittleEndian.Uint32(b[4:]); val&MarkerCommit != 0 {
			w.commit(val &^ MarkerCommit)
			if s.foreign > 0 {
				w.applyMixed(s)
			} else if img != nil {
				for p := s.open; p < s.pos; p += logrec.Size {
					r := s.buf[p : p+logrec.Size : p+logrec.Size]
					put(img, binary.LittleEndian.Uint32(r[0:]), binary.LittleEndian.Uint32(r[4:]), binary.LittleEndian.Uint16(r[8:]))
				}
			} else if apply != nil {
				for p := s.open; p < s.pos; p += logrec.Size {
					apply(s.rec(p, true))
				}
			}
			w.st.Applied += s.pending()
		}
		// A begin marker after an uncommitted transaction drops that
		// transaction's buffered writes, same as a commit flush.
		s.open, s.foreign = s.pos+logrec.Size, 0
	}
}

// applyMixed applies a committed transaction whose records share
// buf[open:pos] with another segment's, passing over those.
func (w *Walker) applyMixed(s *stream) {
	for p := s.open; p < s.pos; p += logrec.Size {
		r := s.buf[p : p+logrec.Size : p+logrec.Size]
		off, size := binary.LittleEndian.Uint32(r[0:]), binary.LittleEndian.Uint16(r[8:])
		if size == foreignSize {
			continue
		}
		if w.cfg.Image != nil {
			put(w.cfg.Image, off, binary.LittleEndian.Uint32(r[4:]), size)
		} else if w.cfg.Apply != nil {
			w.cfg.Apply(s.rec(p, true))
		}
	}
}

// put stores a write of size bytes of val at img[off:], little-endian.
// The write passed ValidWrite against a segment img spans, so it is in
// bounds.
func put(img []byte, off, val uint32, size uint16) {
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(img[off:], val)
	case 2:
		binary.LittleEndian.PutUint16(img[off:], uint16(val))
	default:
		img[off] = byte(val)
	}
}

// RunReader walks the packed wire records r yields, for a data segment
// of segSize bytes, through w and returns the final stats — Run for a
// stream too large to hold: memory is one chunkSize buffer however long
// the stream. When the buffer fills, the open transaction's bytes and
// any partial record move to its front; it doubles only when a single
// open transaction fills it. Rec.LogOff, Idx and the quarantine anchor
// are positions in the whole stream, offset by the log offset a
// *MachineReader starts at; a trailing partial record is ignored. A read
// error other than io.EOF ends the walk there: it is returned with the
// walk's stats up to it, and no transaction whose commit marker lies
// past it is applied.
func RunReader(r io.Reader, segSize uint32, w *Walker) (Stats, error) {
	s := stream{segSize: segSize}
	if m, ok := r.(*MachineReader); ok {
		s.machine, s.base = true, m.r.Offset()
	}
	return w.run(r, s, chunkSize)
}

// run is RunReader over s, a stream with no buffer yet, from a first
// buffer of size bytes.
func (w *Walker) run(r io.Reader, s stream, size int) (Stats, error) {
	s.buf = make([]byte, 0, size)
	for !w.halted {
		if len(s.buf) == cap(s.buf) {
			s.shift()
		}
		n, err := r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		w.scan(&s)
		if err == io.EOF {
			break
		}
		if err != nil {
			return w.finish(s.pending()), err
		}
	}
	return w.finish(s.pending()), nil
}

// shift makes room in a full buffer: the bytes the walk still needs (the
// open transaction's and a partial record's) move to the front, into a
// buffer twice the size when they are the whole buffer.
func (s *stream) shift() {
	keep := s.buf[s.open:]
	if s.open == 0 {
		s.buf = make([]byte, len(keep), 2*cap(s.buf))
	} else {
		s.buf = s.buf[:len(keep)]
	}
	copy(s.buf, keep)
	s.base += uint32(s.open)
	s.idx += s.open / logrec.Size
	s.pos -= s.open
	s.open = 0
}
