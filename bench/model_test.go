package main

import (
	"testing"

	"lvm/internal/lvmd"
)

// TestCheckerReportsAFlippedModelEntry proves the read-back check can
// fail: against a real server the honest model passes, and the same
// model with one acked value flipped is reported, once.
func TestCheckerReportsAFlippedModelEntry(t *testing.T) {
	c := &runCtx{seed: 5, seconds: 0.1, dataDir: t.TempDir(), small: true}
	dir, err := c.workDir("model")
	if err != nil {
		t.Fatal(err)
	}
	v := &verdict{}
	env, err := startServe(c, serveCommit, dir, v)
	if err != nil {
		t.Fatal(err)
	}
	defer env.abort()
	if v.failed != 0 || v.attempted == 0 {
		t.Fatalf("warm-up: %d of %d failed: %v", v.failed, v.attempted, v.notes)
	}

	honest := &verdict{}
	readBack(env.clients[0], serveSegments, serveCore.SlotSize, env.models, honest, "honest")
	if honest.failed != 0 || honest.attempted == 0 {
		t.Fatalf("honest model: %d of %d checks failed: %v", honest.failed, honest.attempted, honest.notes)
	}

	m := env.models[1]
	flipped := -1
	for i, ok := range m.acked {
		if ok {
			m.val[i] ^= 0x10
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("the warm-up acked nothing for client 1")
	}
	lied := &verdict{}
	readBack(env.clients[0], serveSegments, serveCore.SlotSize, env.models, lied, "flipped")
	if lied.failed != 1 || lied.attempted != honest.attempted {
		t.Fatalf("flipped model: %d of %d checks failed, want exactly 1 of %d", lied.failed, lied.attempted, honest.attempted)
	}
}

func TestModelChecksOnlyAckedWords(t *testing.T) {
	m := newModel(2, 16)
	m.ack(2, []lvmd.Write{{Off: 4, Val: 0xAABBCCDD}})
	data := make([]byte, 16)
	if checked, bad := m.check(2, 0, data); checked != 1 || bad != 1 {
		t.Fatalf("zeroed slot: checked %d bad %d, want 1 and 1", checked, bad)
	}
	data[4], data[5], data[6], data[7] = 0xDD, 0xCC, 0xBB, 0xAA
	if checked, bad := m.check(2, 0, data); checked != 1 || bad != 0 {
		t.Fatalf("matching slot: checked %d bad %d, want 1 and 0", checked, bad)
	}
	if checked, _ := m.check(1, 0, data); checked != 0 {
		t.Fatalf("segment 1 has no acks but %d words were checked", checked)
	}
	if checked, bad := m.check(2, 4, data[4:8]); checked != 1 || bad != 0 {
		t.Fatalf("offset read: checked %d bad %d, want 1 and 0", checked, bad)
	}
}
