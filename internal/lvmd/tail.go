package lvmd

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lvm/internal/logrec"
)

// tailMagic is the tail-file preamble, "LVTL" little-endian.
const tailMagic = uint32(0x4C54564C)

const (
	tailVersion = 1
	tailHdrSize = 16
)

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
// Cuts and resets rewrite the file through a temp-file rename, so a
// crash leaves either the old or the new mirror, never a torn one. A
// crash mid-append can leave a partial final record; OpenTail sizes the
// mirror to a record boundary — the partial record was never acked (the
// fsync that would have acked it did not complete).
type TailFile struct {
	path    string
	f       *os.File
	cutBase uint64
	size    uint64 // record bytes currently in the file (excl. header)
	buf     []byte // appended but not yet flushed
	syncs   uint64 // fsyncs issued, the file's and its directory's
}

// OpenTail opens (creating if needed) the tail file and reads its
// header. A fresh or header-less file starts at cutBase 0.
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
	t.cutBase = binary.LittleEndian.Uint64(hdr[8:])
	if hdr != tailHeader(t.cutBase) { // magic or version differs
		f.Close()
		return nil, fmt.Errorf("lvmd: tail file %s: bad header", path)
	}
	body := uint64(st.Size()) - tailHdrSize
	t.size = body - body%logrec.Size // ignore a torn final record
	return t, nil
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

// Syncs reports how many fsyncs the file has issued (its own and its
// directory's).
func (t *TailFile) Syncs() uint64 { return t.syncs }

// Size reports the mirrored record bytes (buffered appends included).
func (t *TailFile) Size() uint64 { return t.size + uint64(len(t.buf)) }

// Append buffers record bytes; Flush makes them durable.
func (t *TailFile) Append(records []byte) {
	t.buf = append(t.buf, records...)
}

// Flush writes the buffered bytes and fsyncs. This is the durability
// point a commit acknowledgement waits behind.
func (t *TailFile) Flush() error {
	if len(t.buf) > 0 {
		if _, err := t.f.WriteAt(t.buf, int64(tailHdrSize+t.size)); err != nil {
			return fmt.Errorf("lvmd: tail append: %w", err)
		}
		t.size += uint64(len(t.buf))
		t.buf = t.buf[:0]
	}
	t.syncs++
	if err := t.f.Sync(); err != nil {
		return fmt.Errorf("lvmd: tail fsync: %w", err)
	}
	return nil
}

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

// rewrite replaces the file with header(cutBase)+body via temp+rename,
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
	t.size = uint64(len(body))
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

// section reads the flushed mirror bytes from offset from on.
func (t *TailFile) section(from uint64) *io.SectionReader {
	return io.NewSectionReader(t.f, int64(tailHdrSize+from), int64(t.size-from))
}

// Close closes the backing file.
func (t *TailFile) Close() error { return t.f.Close() }
