package core

import (
	"fmt"

	"lvm/internal/logrec"
)

// Record is one logged write as seen by a log consumer: the raw 16-byte
// record (Section 3.1) plus the kernel's reverse translation of its
// physical address back to the owning segment and offset (Section 3.1.2:
// the prototype logger stores physical addresses, so consumers that want
// segment-relative or virtual addresses translate in software).
type Record struct {
	logrec.Record
	// Seg is the segment the write landed in (nil if the frame is no
	// longer owned, e.g. the segment was freed).
	Seg *Segment
	// SegOff is the byte offset of the write within Seg.
	SegOff uint32
}

// LogReader iterates over the records of a (record-mode) log segment in
// write order: "These log records are arranged sequentially in the log
// segment so that an earlier write is stored in a lower offset than a
// later write" (Section 2.1).
type LogReader struct {
	sys *System
	ls  *Segment
	off uint32
	end uint32
	// scratch receives the raw record bytes so that Next does not
	// allocate per record.
	scratch [logrec.Size]byte
}

// NewLogReader creates a reader positioned at the start of the log. It
// synchronizes with the logger (drains in-flight records) to find the end
// of the log.
func NewLogReader(sys *System, ls *Segment) *LogReader {
	r := &LogReader{sys: sys, ls: ls}
	r.Sync()
	return r
}

// NewLogReaderAt creates a reader over [start, end) of the log WITHOUT
// synchronizing with the logger or consulting the hardware append state.
// Callers must have established the bounds beforehand (typically from a
// synced NewLogReader); because it touches no kernel or device state, any
// number of such readers may run concurrently over a quiescent machine —
// the partitioned parallel recovery path depends on exactly that.
func NewLogReaderAt(sys *System, ls *Segment, start, end uint32) *LogReader {
	r := &LogReader{sys: sys, ls: ls, off: start}
	r.SetEnd(end)
	return r
}

// Sync drains the logger and refreshes the reader's view of the log end.
func (r *LogReader) Sync() {
	r.sys.K.Sync()
	r.end = r.sys.K.LogAppendOffset(r.ls)
}

// Offset reports the reader's current byte offset within the log segment.
func (r *LogReader) Offset() uint32 { return r.off }

// End reports the reader's view of the log end offset.
func (r *LogReader) End() uint32 { return r.end }

// SetEnd overrides the reader's view of the log end, bounded by the
// segment size. Crash recovery uses it to scan a log whose hardware
// append state did not survive: the surviving bytes are authoritative,
// not the (lost) device head.
func (r *LogReader) SetEnd(end uint32) {
	if max := r.ls.Size(); end > max {
		end = max
	}
	r.end = end
}

// Seek positions the reader at the given byte offset (must be a multiple
// of the record size).
func (r *LogReader) Seek(off uint32) error {
	if off%logrec.Size != 0 {
		return fmt.Errorf("core: log seek offset %d not record aligned", off)
	}
	r.off = off
	return nil
}

// Remaining reports how many whole records remain: none once the reader
// is at or past its end.
func (r *LogReader) Remaining() int { return int((max(r.end, r.off) - r.off) / logrec.Size) }

// Next returns the next record, resolving its address. ok is false at the
// end of the log.
func (r *LogReader) Next() (rec Record, ok bool) {
	if r.off+logrec.Size > r.end {
		return Record{}, false
	}
	r.ls.ReadInto(r.off, r.scratch[:])
	raw := logrec.Decode(r.scratch[:])
	r.off += logrec.Size
	rec = Record{Record: raw}
	if seg, off, found := r.sys.K.ResolveLogAddr(r.ls, raw.Addr); found {
		rec.Seg = seg
		rec.SegOff = off
	}
	return rec, true
}

// Truncate discards the log contents and resets both the hardware append
// position and this reader to the start.
func (r *LogReader) Truncate() error {
	if err := r.sys.K.TruncateLog(r.ls); err != nil {
		return err
	}
	r.off, r.end = 0, 0
	return nil
}

// ReadIndexed returns the values of an indexed-mode log (Section 2.6:
// "the log generates a sequence of data values into the log segment
// without addresses or other information").
func ReadIndexed(sys *System, ls *Segment) []uint32 {
	sys.K.Sync()
	end := sys.K.LogAppendOffset(ls)
	out := make([]uint32, 0, end/4)
	for off := uint32(0); off+4 <= end; off += 4 {
		out = append(out, ls.Read32(off))
	}
	return out
}
