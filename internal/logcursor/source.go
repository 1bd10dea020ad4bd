package logcursor

import (
	"lvm/internal/core"
	"lvm/internal/logrec"
)

// MachineSource yields the records of a hardware log segment as seen
// through the kernel's reverse address translation (core.LogReader):
// each record is resolved back to its owning segment, classified
// against the data segment being walked, and validated with the shared
// ValidWrite rules plus the machine-only checks (the frame must still
// be owned, and a "write" into a log segment is never real — the
// logger does not log its own log).
type MachineSource struct {
	r    *core.LogReader
	data *core.Segment
	idx  int
}

// NewMachineSource opens a synced source over log's records, walking
// them as writes into data. It synchronizes with the logger to find
// the log end.
func NewMachineSource(sys *core.System, log, data *core.Segment) *MachineSource {
	return &MachineSource{r: core.NewLogReader(sys, log), data: data}
}

// NewMachineSourceAt opens a source over [start, end) of the log
// WITHOUT synchronizing with the logger or touching kernel or device
// state, so any number may run concurrently over a quiescent machine —
// the partitioned parallel replay depends on exactly that. Bounds must
// have been established beforehand (typically from a synced source).
func NewMachineSourceAt(sys *core.System, log, data *core.Segment, start, end uint32) *MachineSource {
	return &MachineSource{r: core.NewLogReaderAt(sys, log, start, end), data: data}
}

// SetEnd overrides the source's view of the log end (clamped to the
// segment size) — crash recovery scanning a log whose hardware append
// state did not survive.
func (s *MachineSource) SetEnd(end uint32) { s.r.SetEnd(end) }

// End reports the source's view of the log end offset.
func (s *MachineSource) End() uint32 { return s.r.End() }

// Seek positions the source at the given byte offset (must be record
// aligned).
func (s *MachineSource) Seek(off uint32) error { return s.r.Seek(off) }

// Next yields the next record in the cursor's uniform form.
func (s *MachineSource) Next() (Rec, bool) {
	off := s.r.Offset()
	rec, ok := s.r.Next()
	if !ok {
		return Rec{}, false
	}
	r := Rec{
		Off:    rec.SegOff,
		Value:  rec.Value,
		Size:   rec.WriteSize,
		LogOff: off,
		Idx:    s.idx,
		Valid: rec.Seg != nil &&
			ValidWrite(rec.SegOff, rec.WriteSize, rec.Seg.Size()) &&
			!rec.Seg.IsLog(),
		Data: rec.Seg == s.data,
	}
	s.idx++
	return r, true
}

// BytesSource yields records from a packed byte stream of 16-byte wire
// records whose Addr field is already a data-segment offset — the form
// records take once shipped off-machine (logship batches, the lvmd
// durable tail mirror). Validation is ValidWrite against the segment
// size; there is no kernel to resolve addresses against, so every
// record is Data.
type BytesSource struct {
	s stream
}

// NewBytesSource opens a source over b (whole records only; a trailing
// partial record is ignored) for a data segment of segSize bytes.
func NewBytesSource(b []byte, segSize uint32) *BytesSource {
	return &BytesSource{stream{buf: b, segSize: segSize}}
}

// End reports the byte length of the whole records in the stream.
func (b *BytesSource) End() uint32 {
	return uint32(len(b.s.buf) - len(b.s.buf)%logrec.Size)
}

// Next yields the next record in the cursor's uniform form.
func (b *BytesSource) Next() (Rec, bool) {
	s := &b.s
	if s.pos+logrec.Size > len(s.buf) {
		return Rec{}, false
	}
	r := s.rec(s.pos, false)
	r.Valid = ValidWrite(r.Off, r.Size, s.segSize)
	s.pos += logrec.Size
	return r, true
}

// Wire returns rec re-addressed to its segment offset — the canonical
// form for shipping a data record off-machine (a BytesSource on the
// other end addresses it back into the replica segment).
func Wire(rec core.Record) logrec.Record {
	w := rec.Record
	w.Addr = rec.SegOff
	return w
}

// EachData drives r to the end of the log, calling f for every record
// with isData reporting whether it resolves to data. This is the
// selection walk shared by the log shippers (emit data records in wire
// form, ignore foreign ones), the lvmd durable tail mirror (foreign
// records are a configuration error there), and the DSM producer's
// release enumeration. f returning an error stops the walk.
func EachData(r *core.LogReader, data *core.Segment, f func(rec core.Record, isData bool) error) error {
	for {
		rec, ok := r.Next()
		if !ok {
			return nil
		}
		if err := f(rec, rec.Seg == data); err != nil {
			return err
		}
	}
}
