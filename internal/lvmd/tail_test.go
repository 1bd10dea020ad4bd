package lvmd

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"lvm/internal/logrec"
)

// TestTailCutFailureKeepsMirror: a compaction Cut whose temp-file write
// fails must report the failure and leave the old mirror — on disk and in
// the open TailFile — exactly as it was, with no temp file behind. (The
// rewrite used to drop the body write's error, fsync the short temp file
// and rename it over the good mirror: the next restart lost acked records.)
func TestTailCutFailureKeepsMirror(t *testing.T) {
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skipf("no writable /dev/full: %v", err)
	} else {
		_, werr := f.Write([]byte{0})
		f.Close()
		if werr == nil {
			t.Skip("/dev/full accepts writes here")
		}
	}
	path := filepath.Join(t.TempDir(), "tail")
	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	recs := make([]byte, 4*logrec.Size)
	for i := range recs {
		recs[i] = byte(i + 1)
	}
	tail.Append(recs)
	if err := tail.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Skipf("cannot plant the failing temp file: %v", err)
	}

	if err := tail.Cut(2 * logrec.Size); err == nil {
		t.Fatal("Cut over a failing temp file reported success")
	}
	if got, err := tail.Load(); err != nil || !bytes.Equal(got, recs) {
		t.Fatalf("after the failed Cut, Load = %x, %v; want the pre-cut %x", got, err, recs)
	}
	if tail.CutBase() != 0 || tail.Size() != uint64(len(recs)) {
		t.Fatalf("after the failed Cut, cutBase %d size %d; want 0, %d", tail.CutBase(), tail.Size(), len(recs))
	}
	if _, err := os.Lstat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the failed Cut left %s.tmp behind (%v)", path, err)
	}
	reopened, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Load()
	reopened.Close()
	if err != nil || !bytes.Equal(got, recs) {
		t.Fatalf("the mirror on disk after the failed Cut = %x, %v; want %x", got, err, recs)
	}

	// With the temp path free again, the same Cut goes through.
	if err := tail.Cut(2 * logrec.Size); err != nil {
		t.Fatal(err)
	}
	if got, err := tail.Load(); err != nil || !bytes.Equal(got, recs[2*logrec.Size:]) || tail.CutBase() != 2*logrec.Size {
		t.Fatalf("after the retried Cut, Load = %x, %v, cutBase %d", got, err, tail.CutBase())
	}
}

// TestTailRewriteAdoptsTempFile: after a Cut and after a Reset the
// mirror's open handle is the file at its path — the renamed temp file,
// not the unlinked old one — so records flushed afterwards are the ones a
// restart reads back.
func TestTailRewriteAdoptsTempFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail")
	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	recs := make([]byte, 6*logrec.Size)
	for i := range recs {
		recs[i] = byte(i + 1)
	}
	sameFile := func(when string) {
		t.Helper()
		open, err := tail.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(open, onDisk) {
			t.Fatalf("after %s the open handle is not the file at %s", when, path)
		}
	}
	reopened := func() ([]byte, uint64) {
		t.Helper()
		r, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := r.Load()
		if err != nil {
			t.Fatal(err)
		}
		return got, r.CutBase()
	}

	tail.Append(recs[:4*logrec.Size])
	if err := tail.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tail.Cut(2 * logrec.Size); err != nil {
		t.Fatal(err)
	}
	sameFile("Cut")
	tail.Append(recs[4*logrec.Size:])
	if err := tail.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, base := reopened(); !bytes.Equal(got, recs[2*logrec.Size:]) || base != 2*logrec.Size {
		t.Fatalf("after Cut and Flush a fresh OpenTail reads %x at cutBase %d; want %x at %d",
			got, base, recs[2*logrec.Size:], 2*logrec.Size)
	}

	if err := tail.Reset(100 * logrec.Size); err != nil {
		t.Fatal(err)
	}
	sameFile("Reset")
	tail.Append(recs[:logrec.Size])
	if err := tail.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, base := reopened(); !bytes.Equal(got, recs[:logrec.Size]) || base != 100*logrec.Size {
		t.Fatalf("after Reset and Flush a fresh OpenTail reads %x at cutBase %d; want %x at %d",
			got, base, recs[:logrec.Size], 100*logrec.Size)
	}
}
