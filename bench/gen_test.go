package main

import "testing"

func TestOpStreamDeterministicPerSeed(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    streamSpec
	}{{"serve_commit", serveCommit.stream}, {"serve_mixed", serveMixed.stream}, {"recover_restart", recoverStream()}} {
		a := streamDigest(spec.s, 1, spec.name, 512)
		if b := streamDigest(spec.s, 1, spec.name, 512); a != b {
			t.Errorf("%s: seed 1 gave two different op streams", spec.name)
		}
		if b := streamDigest(spec.s, 2, spec.name, 512); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", spec.name)
		}
	}
	if streamDigest(serveCommit.stream, 1, "serve_commit", 512) == streamDigest(serveCommit.stream, 1, "serve_replicated", 512) {
		t.Error("two workloads share one op stream")
	}
}

// TestOpStreamKeepsWordsSingleWriter checks the two properties the
// exact metrics rest on: offsets within a commit are distinct, and no
// word is ever stored to by two clients.
func TestOpStreamKeepsWordsSingleWriter(t *testing.T) {
	spec := serveMixed.stream
	owner := map[uint32]int{}
	reads, commits := 0, 0
	for c := 0; c < spec.clients; c++ {
		s := newOpStream(spec, 3, "serve_mixed", c)
		for i := 0; i < 2000; i++ {
			o := s.next()
			if o.seg < 1 || o.seg > uint64(spec.segments) {
				t.Fatalf("segment %d out of range", o.seg)
			}
			if o.kind == opRead {
				reads++
				if o.off%4 != 0 || o.off+o.n > spec.slotSize {
					t.Fatalf("read [%d,+%d) leaves the slot", o.off, o.n)
				}
				continue
			}
			commits++
			if len(o.writes) != spec.stores {
				t.Fatalf("commit of %d stores, want %d", len(o.writes), spec.stores)
			}
			seen := map[uint32]bool{}
			for _, w := range o.writes {
				if seen[w.Off] {
					t.Fatalf("offset %d repeats within a commit", w.Off)
				}
				seen[w.Off] = true
				if w.Off%4 != 0 || w.Off+4 > spec.slotSize {
					t.Fatalf("store offset %d invalid", w.Off)
				}
				if prev, ok := owner[w.Off]; ok && prev != c {
					t.Fatalf("word %d written by clients %d and %d", w.Off, prev, c)
				}
				owner[w.Off] = c
			}
		}
	}
	if share := float64(reads) / float64(reads+commits); share < 0.45 || share > 0.55 {
		t.Fatalf("read share %.2f, want about one half", share)
	}
}
