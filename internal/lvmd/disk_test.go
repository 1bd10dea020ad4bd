package lvmd

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvm/internal/logrec"
	"lvm/internal/logship"
)

var updateDisk = flag.Bool("update", false, "rewrite testdata/disk.golden from this run")

// TestDiskGolden is the on-disk format pin: a fixed-seed two-shard
// server commits a fixed stream through one client, drains, restarts
// (an intact restart, so each checkpoint file gains an epoch stamp),
// commits more and drains again. testdata/disk.golden is a
// field-by-field dump of every file the directory then holds, read from
// the raw bytes, and of the second drain's manifest. A change to any
// byte layout shows up as a diff of the lines that name it.
func TestDiskGolden(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(57))
	var rep DrainReport
	for _, commits := range []int{700, 100} {
		srv, err := NewServer(ServerConfig{Dir: dir, Shards: 2,
			Shard: ShardConfig{Core: CoreConfig{Slots: 16, SlotSize: 512, LogPages: 16}}})
		if err != nil {
			t.Fatal(err)
		}
		ln, dial := logship.NewMemTransport()
		srv.Serve(ln)
		cl, err := DialClient(dial)
		if err != nil {
			t.Fatal(err)
		}
		for seg := uint64(1); seg <= 6; seg++ {
			if _, err := cl.Open(seg); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < commits; i++ {
			w := make([]Write, 1+rng.Intn(8))
			for k := range w {
				w[k] = Write{Off: uint32(rng.Intn(512/4)) * 4, Val: rng.Uint32()}
			}
			if err := cl.Commit(uint64(1+rng.Intn(6)), w); err != nil {
				t.Fatal(err)
			}
		}
		cl.Close()
		if rep = srv.Drain(); !rep.Drained {
			t.Fatalf("drain not clean: %+v", rep)
		}
	}

	var b strings.Builder
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s bytes=%d\n", e.Name(), len(raw))
		switch filepath.Ext(e.Name()) {
		case ".tail":
			dumpTail(&b, e.Name(), raw)
		case ".ckpt":
			dumpCheckpoint(t, &b, e.Name(), raw, 16)
		default:
			t.Errorf("unexpected file %s in the data directory", e.Name())
		}
	}
	fmt.Fprintf(&b, "manifest drained=%v shards=%d\n", rep.Drained, len(rep.Shards))
	for i, sh := range rep.Shards {
		fmt.Fprintf(&b, "manifest shard=%d digest=%s seq=%d epoch=%d segments=%d demoted=%v error=%q\n",
			i, sh.Digest, sh.Seq, sh.Epoch, sh.Segments, sh.Demoted, sh.Error)
	}

	path := filepath.Join("testdata", "disk.golden")
	if *updateDisk {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("data directory differs from %s (-update rewrites it); it dumps as\n%s", path, got)
	}
}

// dumpTail writes a tail file's header fields and its extent: the
// records up to the last one with a non-zero size field, and the zero
// bytes past them.
func dumpTail(b *strings.Builder, name string, raw []byte) {
	le := binary.LittleEndian
	if len(raw) < 16 {
		fmt.Fprintf(b, "%s short\n", name)
		return
	}
	fmt.Fprintf(b, "%s header magic=%#08x version=%d cut_base=%d\n", name, le.Uint32(raw), le.Uint32(raw[4:]), le.Uint64(raw[8:]))
	body := raw[16:]
	end := refTailEnd(body) * logrec.Size
	zeros := 0
	for _, c := range body[end:] {
		if c == 0 {
			zeros++
		}
	}
	fmt.Fprintf(b, "%s extent records=%d record_bytes=%d trailing_bytes=%d trailing_zero_bytes=%d sha256=%x\n",
		name, end/logrec.Size, end, len(body)-end, zeros, sha256.Sum256(body[:end]))
	if end > 0 {
		fmt.Fprintf(b, "%s first_record %v\n", name, logrec.Decode(body))
		fmt.Fprintf(b, "%s last_record %v\n", name, logrec.Decode(body[end-logrec.Size:]))
	}
}

// dumpCheckpoint writes both checkpoint header blocks field by field
// (the epoch stamp at bytes 64..72 included), each slot image's digest,
// and the slot directory of the elected (highest sealed) image.
func dumpCheckpoint(t *testing.T, b *strings.Builder, name string, raw []byte, slots int) {
	t.Helper()
	le := binary.LittleEndian
	const block = 512
	if len(raw) < 2*block {
		t.Fatalf("%s: %d bytes, shorter than its two header blocks", name, len(raw))
	}
	elected, best := -1, uint32(0)
	var imgLen uint32
	for slot := 0; slot < 2; slot++ {
		h := raw[slot*block:]
		seq, seal := le.Uint32(h[4:]), le.Uint32(h[32:])
		fmt.Fprintf(b, "%s slot=%d magic=%#08x seq=%d img_len=%d epoch=%d watermark=%d cut_base=%d seal=%#08x\n",
			name, slot, le.Uint32(h), seq, le.Uint32(h[8:]), le.Uint32(h[12:]), le.Uint64(h[16:]), le.Uint64(h[24:]), seal)
		fmt.Fprintf(b, "%s slot=%d stamp magic=%#08x epoch=%d\n", name, slot, le.Uint32(h[64:]), le.Uint32(h[68:]))
		imgLen = le.Uint32(h[8:])
		if seq != 0 && seal == seq|1<<31 && seq > best {
			elected, best = slot, seq
		}
	}
	span := (int(imgLen) + block - 1) / block * block
	if imgLen == 0 || len(raw) < 2*block+2*span {
		t.Fatalf("%s: %d bytes, too short for two %d-byte images", name, len(raw), imgLen)
	}
	for slot := 0; slot < 2; slot++ {
		img := raw[2*block+slot*span:][:imgLen]
		fmt.Fprintf(b, "%s slot=%d image sha256=%x\n", name, slot, sha256.Sum256(img))
	}
	if elected < 0 {
		fmt.Fprintf(b, "%s no sealed slot\n", name)
		return
	}
	img := raw[2*block+elected*span:][:imgLen]
	ids, err := readDirectory(img, slots)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(b, "%s directory elected=%d marker=%#08x slots=%v\n", name, elected, le.Uint32(img), ids)
}
