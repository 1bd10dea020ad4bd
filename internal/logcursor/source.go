package logcursor

import (
	"io"

	"lvm/internal/core"
	"lvm/internal/logrec"
)

// foreignSize is the size field MachineReader writes into a record of
// another segment sharing the log. ValidWrite rejects it; the walk
// counts it Skipped on a stream MachineReader produced, and quarantines
// it on any other.
const foreignSize = 0xFFFF

// MachineReader reads a range of a hardware log segment, as seen through
// the kernel's reverse address translation (core.LogReader), as a stream
// of wire records: each record's 16 bytes with the address word replaced
// by its offset in the segment it resolves to, CPU and timestamp kept.
// A record that resolves to data is written as it is. One that does not
// resolve, resolves to a log segment (the logger does not log its own
// log) or fails ValidWrite in its own segment gets size 0, which
// ValidWrite rejects. One of another segment gets the foreign form.
type MachineReader struct {
	r    *core.LogReader
	data *core.Segment
}

// NewMachineReader reads r's records from its offset to its end, walked
// as writes into data. RunReader anchors a walk of it at r's offset.
func NewMachineReader(r *core.LogReader, data *core.Segment) *MachineReader {
	return &MachineReader{r: r, data: data}
}

// Read fills p with whole records, as many as fit and remain; it returns
// io.EOF at the end of the range, and io.ErrShortBuffer when p cannot
// hold one record.
func (m *MachineReader) Read(p []byte) (int, error) {
	if len(p) < logrec.Size {
		return 0, io.ErrShortBuffer
	}
	n := 0
	for ; n+logrec.Size <= len(p); n += logrec.Size {
		rec, ok := m.r.Next()
		if !ok {
			break
		}
		size := rec.WriteSize
		switch {
		case rec.Seg == nil || rec.Seg.IsLog() || !ValidWrite(rec.SegOff, size, rec.Seg.Size()):
			size = 0
		case rec.Seg != m.data:
			size = foreignSize
		}
		logrec.Put((*[logrec.Size]byte)(p[n:]), rec.SegOff, rec.Value, size, rec.CPU, rec.Timestamp)
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// WalkLog walks r's records, from its offset to its end, as writes into
// data in the ApplyAll view: in log order, each valid record goes to
// apply and each of another segment sharing the log to skip (if not
// nil), and the first invalid one quarantines the rest. The records are
// read into *buf, which the caller keeps between walks; r is left at its
// end. RLVM's commit, Time Warp and the DSM producer walk with it.
func WalkLog(buf *[]byte, r *core.LogReader, data *core.Segment, apply func(Rec), skip func()) Stats {
	start, n := r.Offset(), r.Remaining()*logrec.Size
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	m := MachineReader{r: r, data: data}
	m.Read(b) // the range holds n bytes of whole records: one read fills b
	next := 0 // records handed to apply or skip so far
	skipTo := func(idx int) {
		for ; skip != nil && next < idx; next++ {
			skip()
		}
	}
	w := NewWalker(Config{View: ApplyAll, End: r.End(), Apply: func(rec Rec) {
		skipTo(rec.Idx)
		next = rec.Idx + 1
		apply(rec)
	}})
	st := Run(NewMachineBytes(b, start, data.Size()), w)
	skipTo(st.Scanned - st.InvalidRecords) // the invalid record is no skip
	return st
}

// AppendData appends to dst the records r yields next that resolve to
// data, in wire form (the record's bytes with the address word replaced
// by its segment offset, the form a replica or the tail mirror walks),
// and returns the extended buffer and how many it appended. It stops
// after max of them or at r's end; records of other segments sharing
// the log are passed over. This is the one encode loop of the log
// shipper's batches and the lvmd tail mirror.
func AppendData(dst []byte, r *core.LogReader, data *core.Segment, max int) ([]byte, int) {
	n := 0
	for n < max {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Seg != data {
			continue
		}
		var b [logrec.Size]byte
		logrec.Put(&b, rec.SegOff, rec.Value, rec.WriteSize, rec.CPU, rec.Timestamp)
		dst = append(dst, b[:]...)
		n++
	}
	return dst, n
}

// BytesSource is a packed byte stream of 16-byte wire records whose Addr
// field is already a data-segment offset — the form records take once
// shipped off-machine (logship batches, the lvmd durable tail mirror).
// Validation is ValidWrite against the segment size; there is no kernel
// to resolve addresses against.
type BytesSource struct {
	s stream
}

// NewBytesSource opens a source over b (whole records only; a trailing
// partial record is ignored) for a data segment of segSize bytes.
func NewBytesSource(b []byte, segSize uint32) *BytesSource {
	return &BytesSource{stream{buf: b, segSize: segSize}}
}

// NewMachineBytes opens a source over b, records a MachineReader read
// from log offset start (the parallel replay's decoded range): its
// foreign records are skipped, and its quarantine anchor is a log offset.
func NewMachineBytes(b []byte, start, segSize uint32) *BytesSource {
	return &BytesSource{stream{buf: b, segSize: segSize, base: start, machine: true}}
}

// End reports the byte length of the whole records in the stream.
func (b *BytesSource) End() uint32 {
	return uint32(len(b.s.buf) - len(b.s.buf)%logrec.Size)
}
