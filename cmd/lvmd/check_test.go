package main

import (
	"bytes"
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
