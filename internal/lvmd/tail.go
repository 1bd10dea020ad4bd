package lvmd

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"unsafe"

	"lvm/internal/logcursor"
	"lvm/internal/logrec"
)

// tailMagic is the tail-file preamble, "LVTL" little-endian.
const tailMagic = uint32(0x4C54564C)

const (
	tailVersion = 2
	tailHdrSize = 16
	// extentChunk is the zero-filled extent the file grows by. A Flush
	// that stays inside the extent overwrites zeros in place, so the
	// file's size, and with it its metadata, does not change.
	extentChunk = 64 << 10
)

// tailZeros is one chunk of the zeros the extent is filled with.
var tailZeros [extentChunk]byte

// TailFile durably mirrors one shard's log in the log's logical frame:
// the record at file offset tailHdrSize+k is the record at logical log
// offset cutBase+k, with its address field rewritten to an arena offset.
// Each 16-byte record therefore carries everything a restart needs —
// where, what, how wide — and RecoverImage replays the mirror as bytes
// over the checkpoint image, starting at the checkpoint header's logical
// watermark − cutBase. The frame outlives the process: a restart that
// keeps the mirror seeds the new log's logical base at the mirror's end
// (cutBase + Size), so the next generation's records continue it, and a
// compaction cuts the mirror up to the manager's new logical base,
// dropping earlier generations' records with the current one's.
//
// The file (version 2) is preallocated: past the records lies a
// zero-filled extent, grown in whole extentChunks, and a Flush overwrites
// it in place and syncs with fdatasync, so a fence is a data write plus
// a device flush and never a journal commit for a new file size (only a
// Flush that passes the extent grows it). The end of the mirror is
// therefore read from the records, not from the file size: it lies just
// past the last record whose size field is non-zero. No legal record has
// size 0, and a 16-byte record at a 16-byte-aligned file offset never
// straddles a 512-byte sector, so a torn flush leaves whole zero records
// — possibly before a later sector that did reach the disk. Such a gap
// inside the end is damage: RecoverImage's walk quarantines from it.
//
// Cuts and resets rewrite the file, zero-filled extent included, through
// a temp-file rename, so a crash leaves either the old or the new
// mirror, never a torn one.
type TailFile struct {
	path    string
	f       *os.File
	cutBase uint64
	size    uint64 // flushed record bytes: the mirror's end (excl. header)
	extent  uint64 // record bytes the file holds, zero-filled past size
	buf     []byte // appended but not yet flushed
	syncs   uint64 // syncs issued, the file's and its directory's
}

// OpenTail opens (creating if needed) the tail file, reads its header
// and finds the mirror's end by reading back from EOF over the
// zero-filled extent: an intact file costs one read of at most
// extentChunk bytes, and RecoverImage's walk is the only full pass. A
// fresh or header-less file starts at cutBase 0 with an empty extent. A
// file of another version is refused: there is no conversion.
func OpenTail(path string) (*TailFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lvmd: open tail file: %w", err)
	}
	t := &TailFile{path: path, f: f}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lvmd: stat tail file: %w", err)
	}
	if st.Size() < tailHdrSize {
		if err := t.writeHeader(0); err != nil {
			f.Close()
			return nil, err
		}
		return t, nil
	}
	var hdr [tailHdrSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("lvmd: tail header read: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:]) != tailMagic {
		f.Close()
		return nil, fmt.Errorf("lvmd: tail file %s: bad header", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != tailVersion {
		f.Close()
		return nil, fmt.Errorf("lvmd: tail file %s is version %d; this build reads only version %d", path, v, tailVersion)
	}
	t.cutBase = binary.LittleEndian.Uint64(hdr[8:])
	body := uint64(st.Size()) - tailHdrSize
	t.extent = body
	if t.size, err = t.findEnd(body - body%logrec.Size); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// findEnd applies the end rule to the body's first end bytes, whole
// records only, reading back from end one chunk at a time: on an intact
// file the first read holds the last record.
func (t *TailFile) findEnd(end uint64) (uint64, error) {
	buf := make([]byte, min(end, extentChunk))
	for end > 0 {
		b := buf[:min(end, uint64(len(buf)))]
		from := end - uint64(len(b))
		if _, err := t.f.ReadAt(b, int64(tailHdrSize+from)); err != nil {
			return 0, fmt.Errorf("lvmd: tail end read: %w", err)
		}
		if n := lastRecordEnd(b); n > 0 {
			return from + n, nil
		}
		end = from
	}
	return 0, nil
}

// lastRecordEnd is the end rule over whole records b: just past the last
// record whose size field (bytes 8..10) is non-zero, or 0 if none is.
func lastRecordEnd(b []byte) uint64 {
	for i := len(b); i > 0; i -= logrec.Size {
		if b[i-8]|b[i-7] != 0 {
			return uint64(i)
		}
	}
	return 0
}

// tailHeader is the file preamble: magic(4) version(4) cutBase(8).
func tailHeader(cutBase uint64) (hdr [tailHdrSize]byte) {
	binary.LittleEndian.PutUint32(hdr[:], tailMagic)
	binary.LittleEndian.PutUint32(hdr[4:], tailVersion)
	binary.LittleEndian.PutUint64(hdr[8:], cutBase)
	return hdr
}

func (t *TailFile) writeHeader(cutBase uint64) error {
	hdr := tailHeader(cutBase)
	if _, err := t.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("lvmd: tail header write: %w", err)
	}
	t.cutBase = cutBase
	return nil
}

// CutBase reports the logical log offset of the first mirrored byte.
func (t *TailFile) CutBase() uint64 { return t.cutBase }

// Syncs reports how many syncs the file has issued (its own and its
// directory's).
func (t *TailFile) Syncs() uint64 { return t.syncs }

// Size reports the mirrored record bytes (buffered appends included).
func (t *TailFile) Size() uint64 { return t.size + uint64(len(t.buf)) }

// Append buffers record bytes; Flush makes them durable.
func (t *TailFile) Append(records []byte) {
	t.buf = append(t.buf, records...)
}

// Flush writes the buffered bytes over the zero-filled extent and
// syncs them with fdatasync. This is the durability point a commit
// acknowledgement waits behind. A Flush that passes the extent first
// grows it to the next whole chunk; the one sync covers both writes.
func (t *TailFile) Flush() error {
	if len(t.buf) > 0 {
		end := t.size + uint64(len(t.buf))
		if end > t.extent {
			grown := chunkExtent(end)
			if _, err := t.f.WriteAt(tailZeros[:grown-end], int64(tailHdrSize+end)); err != nil {
				return fmt.Errorf("lvmd: tail extent write: %w", err)
			}
			t.extent = grown
		}
		if _, err := t.f.WriteAt(t.buf, int64(tailHdrSize+t.size)); err != nil {
			return fmt.Errorf("lvmd: tail write: %w", err)
		}
		t.size = end
		t.buf = t.buf[:0]
	}
	t.syncs++
	if err := syscall.Fdatasync(int(t.f.Fd())); err != nil {
		return fmt.Errorf("lvmd: tail fdatasync: %w", err)
	}
	return nil
}

// chunkExtent is the extent a file of n record bytes gets: the next
// whole chunk past n, so some zeros always follow the records.
func chunkExtent(n uint64) uint64 { return (n/extentChunk + 1) * extentChunk }

// Cut drops the first cutBytes mirrored bytes (a compaction truncated
// the physical log) and advances cutBase accordingly, atomically via a
// temp-file rename. The caller must have Flushed first: compaction only
// runs at batch boundaries, after the mirror caught up with the log.
func (t *TailFile) Cut(cutBytes uint64) error {
	if len(t.buf) != 0 {
		return fmt.Errorf("lvmd: tail cut with %d unflushed bytes", len(t.buf))
	}
	if cutBytes > t.size {
		return fmt.Errorf("lvmd: tail cut %d of %d bytes", cutBytes, t.size)
	}
	keep := t.size - cutBytes
	body := make([]byte, keep)
	if keep > 0 {
		if _, err := t.f.ReadAt(body, int64(tailHdrSize+cutBytes)); err != nil {
			return fmt.Errorf("lvmd: tail cut read: %w", err)
		}
	}
	return t.rewrite(t.cutBase+cutBytes, body)
}

// Reset empties the mirror and moves cutBase (a restart that
// re-checkpointed the recovered state: the new log starts at logical
// offset cutBase).
func (t *TailFile) Reset(cutBase uint64) error {
	t.buf = t.buf[:0]
	return t.rewrite(cutBase, nil)
}

// rewrite replaces the file with header(cutBase)+body and the body's
// zero-filled extent via temp+rename,
// and the temp file's handle becomes the mirror's: there is no reopen
// that could fail after the rename and leave t writing to the unlinked
// old file. Any failure before the rename removes the temp file and
// leaves the old mirror, and t, untouched.
func (t *TailFile) rewrite(cutBase uint64, body []byte) error {
	tmpPath := t.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lvmd: tail rewrite: %w", err)
	}
	fail := func(what string, err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("lvmd: tail rewrite %s: %w", what, err)
	}
	hdr := tailHeader(cutBase)
	if _, err := tmp.WriteAt(hdr[:], 0); err != nil {
		return fail("header", err)
	}
	if _, err := tmp.WriteAt(body, tailHdrSize); err != nil {
		return fail("body", err)
	}
	size := uint64(len(body))
	extent := chunkExtent(size)
	if _, err := tmp.WriteAt(tailZeros[:extent-size], int64(tailHdrSize+size)); err != nil {
		return fail("extent", err)
	}
	t.syncs++
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := os.Rename(tmpPath, t.path); err != nil {
		return fail("rename", err)
	}
	t.f.Close()
	t.f = tmp
	t.cutBase = cutBase
	t.size, t.extent = size, extent
	// Make the rename durable (directory entry).
	if dir, err := os.Open(filepath.Dir(t.path)); err == nil {
		t.syncs++
		_ = dir.Sync() //errgate:ok — best-effort directory fsync; data durability is the file's own fsync
		dir.Close()
	}
	return nil
}

// Load reads the mirrored record bytes.
func (t *TailFile) Load() ([]byte, error) {
	body := make([]byte, t.size)
	if t.size > 0 {
		if _, err := t.f.ReadAt(body, tailHdrSize); err != nil {
			return nil, fmt.Errorf("lvmd: tail load: %w", err)
		}
	}
	return body, nil
}

// mapRecords maps the flushed mirror bytes from record offset from to
// the end read-only, shared with the page cache, and returns them with
// the mapping they lie in, which the caller releases (syscall.Munmap);
// an empty range maps nothing. A file shorter than the mirror's end
// (truncated under the open handle) is refused before anything is
// mapped: an error, not a shorter tail.
func (t *TailFile) mapRecords(from uint64) (recs, mapping []byte, err error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(t.f.Fd()), &st); err != nil {
		return nil, nil, fmt.Errorf("lvmd: stat tail file: %w", err)
	}
	if held := uint64(max(st.Size-tailHdrSize, 0)); held < t.size {
		held = max(held, from) - from
		return nil, nil, shortTail(held-held%logrec.Size, t.size-from)
	}
	if from == t.size {
		return nil, nil, nil
	}
	at := tailHdrSize + from
	page := at &^ uint64(os.Getpagesize()-1)
	mapping, err = syscall.Mmap(int(t.f.Fd()), int64(page), int(tailHdrSize+t.size-page), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("lvmd: tail map: %w", err)
	}
	return mapping[at-page:], mapping, nil
}

// walkMapped walks recs, mirror bytes mapRecords mapped, through w into
// a data segment of segSize bytes. A page of recs past the file's end
// (the file was truncated under the mapping) faults; that fault is
// recovered into the error a short file gets, counting the record bytes
// before the faulting one. Any other panic goes on.
func walkMapped(recs []byte, segSize uint32, w *logcursor.Walker) (st logcursor.Stats, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(interface{ Addr() uintptr })
			base := uintptr(unsafe.Pointer(unsafe.SliceData(recs)))
			if !ok || f.Addr() < base || f.Addr()-base >= uintptr(len(recs)) {
				panic(r)
			}
			at := uint64(f.Addr() - base)
			err = shortTail(at-at%logrec.Size, uint64(len(recs)))
		}
	}()
	return logcursor.Run(logcursor.NewBytesSource(recs, segSize), w), nil
}

// shortTail is the error for a mirror whose file holds only have of the
// want record bytes a walk needs.
func shortTail(have, want uint64) error {
	return fmt.Errorf("lvmd: tail load: %d of %d record bytes", have, want)
}

// Close closes the backing file.
func (t *TailFile) Close() error { return t.f.Close() }
