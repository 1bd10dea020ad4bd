package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvm/internal/lvmd"
)

// TestCheckReportsTailDamage kills a shard with commits only in its tail
// mirror, damages one mirrored record, and requires -check to say where
// the replay stopped and how much it dropped instead of reporting a
// clean (shorter) recovery.
func TestCheckReportsTailDamage(t *testing.T) {
	dir := t.TempDir()
	cfg := lvmd.CoreConfig{Slots: 8, SlotSize: 256, LogPages: 16}
	disk, err := lvmd.OpenFileDisk(filepath.Join(dir, "shard-0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tailPath := filepath.Join(dir, "shard-0.tail")
	tail, err := lvmd.OpenTail(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	boot := cfg
	boot.Disk, boot.Tail = disk, tail
	c, err := lvmd.NewCore(boot, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open(1); err != nil { // records 0–3
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ { // 3 records each
		if _, err := c.Commit(1, []lvmd.Write{{Off: 4 * i, Val: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SyncBatch(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := runCheck(dir, 1, cfg, &out); code != 0 || strings.Contains(out.String(), "damaged") {
		t.Fatalf("clean files: exit %d, output %q", code, out.String())
	}
	if !strings.Contains(out.String(), "tail=16 records: ok") {
		t.Fatalf("clean check line: %q", out.String())
	}

	// Record 9 (16-byte tail header, 16-byte records): write size 3.
	f, err := os.OpenFile(tailPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{3}, 16+9*16+8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out.Reset()
	if code := runCheck(dir, 1, cfg, &out); code != 0 {
		t.Fatalf("damaged tail: exit %d, output %q", code, out.String())
	}
	if want := "tail=16 records, tail damaged at record 9, 7 records dropped: ok"; !strings.Contains(out.String(), want) {
		t.Fatalf("check line %q lacks %q", out.String(), want)
	}
}

// TestCheckComparesWholeRecoverInfo pins the determinism probe to every
// field of the recovery report: two recoveries that agree on the image
// and the sequence but not on where the damage began, or on how many
// records were re-issued, are not the same recovery.
func TestCheckComparesWholeRecoverInfo(t *testing.T) {
	img := make([]byte, 64)
	var info lvmd.RecoverInfo
	info.Seq, info.TailRecords, info.ReissuedRecords = 7, 16, 9
	info.QuarantinedFrom, info.InvalidRecords, info.Txns = 9*16, 1, 2
	if !sameRecovery(img, info, append([]byte(nil), img...), info) {
		t.Fatal("identical recoveries reported different")
	}
	other := append([]byte(nil), img...)
	other[lvmd.MarkerLimit] = 1
	if sameRecovery(img, info, other, info) {
		t.Fatal("different images reported the same")
	}
	for name, mutate := range map[string]func(*lvmd.RecoverInfo){
		"quarantine offset": func(i *lvmd.RecoverInfo) { i.QuarantinedFrom += 16 },
		"re-issued records": func(i *lvmd.RecoverInfo) { i.ReissuedRecords++ },
		"tail records":      func(i *lvmd.RecoverInfo) { i.TailRecords++ },
		"replayed txns":     func(i *lvmd.RecoverInfo) { i.Txns++ },
		"sequence":          func(i *lvmd.RecoverInfo) { i.Seq++ },
	} {
		info2 := info
		mutate(&info2)
		if sameRecovery(img, info, img, info2) {
			t.Errorf("recoveries differing in %s reported the same", name)
		}
	}
}

// TestCheckRefusesShardCountMismatch drains two shards to a manifest and
// requires -check with any other shard count to fail: a manifest vouches
// for every shard it lists, and checking a prefix would leave the rest
// unverified.
func TestCheckRefusesShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := lvmd.CoreConfig{Slots: 8, SlotSize: 256, LogPages: 16}
	srv, err := lvmd.NewServer(lvmd.ServerConfig{Dir: dir, Shards: 2, Shard: lvmd.ShardConfig{Core: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(srv.Drain())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := runCheck(dir, 2, cfg, &out); code != 0 || strings.Count(out.String(), "matches manifest") != 2 {
		t.Fatalf("-shards 2: exit %d, output %q", code, out.String())
	}
	for _, shards := range []int{1, 3} {
		out.Reset()
		if code := runCheck(dir, shards, cfg, &out); code == 0 {
			t.Errorf("-shards %d against a 2-shard manifest passed: %q", shards, out.String())
		}
	}
}

// FuzzDrainManifest feeds -check's manifest decoder arbitrary bytes and
// shard counts, seeded with a real two-shard drain. It must never panic,
// anything it accepts must list exactly the requested shards, and an
// accepted report must survive encoding and decoding again unchanged.
// Reports compare by their encoding: omitempty writes an empty
// histogram map and a missing one alike, so they are the same report.
func FuzzDrainManifest(f *testing.F) {
	cfg := lvmd.CoreConfig{Slots: 8, SlotSize: 256, LogPages: 16}
	srv, err := lvmd.NewServer(lvmd.ServerConfig{Dir: f.TempDir(), Shards: 2, Shard: lvmd.ShardConfig{Core: cfg}})
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(srv.Drain())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b, 2)
	f.Add(b, 3)
	f.Add([]byte(`{"shards":[{"metrics":{"counters":{},"histograms":{}}}]}`), 1)
	f.Fuzz(func(t *testing.T, b []byte, shards int) {
		rep, err := decodeManifest(b, shards)
		if err != nil {
			return
		}
		if len(rep.Shards) != shards {
			t.Fatalf("accepted a manifest of %d shards for -shards %d", len(rep.Shards), shards)
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		again, err := decodeManifest(enc, shards)
		if err != nil {
			t.Fatalf("re-encoded report refused: %v", err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the report (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
