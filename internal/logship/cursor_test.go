package logship

// Differential and regression tests for the logcursor port of the
// replica apply path: the pre-cursor applyBatch/track, frozen verbatim,
// must produce byte-identical replica images on in-domain batches, and
// the one intentional divergence — marker classification now uses the
// shared logcursor.IsMarker rule (any whole-word store in the marker
// area) instead of the replica's private offset-0-only rule, so the
// undo ledger brackets transactions exactly as crash recovery does —
// is pinned against recovery.Replay itself.

import (
	"bytes"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/recovery"
	"lvm/internal/wire"
)

// wireRec encodes one wire record (segment-offset addressed).
func wireRec(off, val uint32, size uint16) []byte {
	var b [logrec.Size]byte
	logrec.Record{Addr: off, Value: val, WriteSize: size}.Encode(b[:])
	return b[:]
}

// legacyApplyBatch is Replica.applyBatch as it stood before the
// logcursor unification, including its private marker rule in
// legacyTrack.
func legacyApplyBatch(r *Replica, b *wire.Batch) bool {
	for i := uint32(0); i < b.Count; i++ {
		rec := logrec.Decode(b.Records[i*logrec.Size:])
		if !logcursor.ValidWrite(rec.Addr, rec.WriteSize, r.size) {
			return false
		}
		if r.markerLimit > 0 {
			legacyTrack(r, rec)
		}
		r.cons.ApplyRecord(rec.Addr, rec.Value, rec.WriteSize)
	}
	return true
}

func legacyTrack(r *Replica, rec logrec.Record) {
	if rec.Addr == 0 && rec.WriteSize == 4 {
		if rec.Value&recovery.MarkerCommit != 0 {
			r.undo = r.undo[:0]
			r.inflight = false
			r.inflightUnknown = false
			return
		}
		r.undo = append(r.undo[:0], undoWord{0, r.cons.Word(0)})
		r.inflight = true
		r.inflightUnknown = false
		return
	}
	if !r.inflight {
		return
	}
	for w := rec.Addr &^ 3; w < rec.Addr+uint32(rec.WriteSize); w += 4 {
		r.undo = append(r.undo, undoWord{w, r.cons.Word(w)})
	}
}

func newBareReplica(t *testing.T, size uint32, markers bool) *Replica {
	t.Helper()
	r, err := NewReplica(nil, size)
	if err != nil {
		t.Fatal(err)
	}
	if markers {
		r.TrackMarkers(16)
	}
	return r
}

// TestApplyBatchMatchesLegacy feeds identical batch streams — committed
// transactions, sub-word writes, an offset-0 marker protocol, and a
// corrupt tail — through the cursor-based applyBatch and the frozen
// legacy loop, requiring byte-identical images, identical verdicts, and
// identical undo-ledger state.
func TestApplyBatchMatchesLegacy(t *testing.T) {
	const size = 4 * core.PageSize
	batches := [][]byte{
		bytes.Join([][]byte{
			wireRec(0, 1, 4), // begin 1
			wireRec(0x100, 0xAABBCCDD, 4),
			wireRec(0x104, 0xBEEF, 2),
			wireRec(0x107, 0x7F, 1),
			wireRec(0, 1|recovery.MarkerCommit, 4), // commit 1
		}, nil),
		bytes.Join([][]byte{
			wireRec(0, 2, 4), // begin 2, never commits: ledger stays open
			wireRec(0x200, 99, 4),
		}, nil),
		bytes.Join([][]byte{
			wireRec(0x204, 100, 4),
			wireRec(0x300, 5, 7), // impossible size: quarantine here
			wireRec(0x304, 6, 4),
		}, nil),
	}
	cur := newBareReplica(t, size, true)
	leg := newBareReplica(t, size, true)
	for bi, b := range batches {
		h := &wire.Batch{Count: uint32(len(b) / logrec.Size), Records: b}
		okC := cur.applyBatch(h)
		okL := legacyApplyBatch(leg, h)
		if okC != okL {
			t.Fatalf("batch %d verdicts differ: cursor %v legacy %v", bi, okC, okL)
		}
		if !bytes.Equal(cur.Image(), leg.Image()) {
			t.Fatalf("batch %d: images diverged", bi)
		}
		if len(cur.undo) != len(leg.undo) || cur.inflight != leg.inflight {
			t.Fatalf("batch %d: ledger diverged: %d/%v vs %d/%v",
				bi, len(cur.undo), cur.inflight, len(leg.undo), leg.inflight)
		}
		for i := range cur.undo {
			if cur.undo[i] != leg.undo[i] {
				t.Fatalf("batch %d: undo[%d] = %+v vs %+v", bi, i, cur.undo[i], leg.undo[i])
			}
		}
	}
	if cur.err == nil {
		t.Fatalf("corrupt batch did not set the session error")
	}
}

// TestTrackMarkerAreaMatchesRecovery pins the intentional divergence:
// the replica's old private rule only recognized markers at offset 0,
// so a marker word elsewhere in the area (which recovery's replay DOES
// treat as a transaction bracket) split the two consumers' notions of
// "committed". Now both use logcursor.IsMarker: after a rollback, the
// replica must hold exactly the state recovery's committed view
// reconstructs from the same stream.
func TestTrackMarkerAreaMatchesRecovery(t *testing.T) {
	const size = 4 * core.PageSize
	// A stream whose second transaction brackets with a marker word at
	// offset 4 and never commits.
	stream := [][]byte{
		wireRec(0, 1, 4),
		wireRec(0x100, 11, 4),
		wireRec(0, 1|recovery.MarkerCommit, 4),
		wireRec(4, 2, 4), // begin via a non-zero marker word
		wireRec(0x104, 22, 4),
		// crash: no commit
	}
	rep := newBareReplica(t, size, true)
	b := bytes.Join(stream, nil)
	if !rep.applyBatch(&wire.Batch{Count: uint32(len(b) / logrec.Size), Records: b}) {
		t.Fatalf("in-domain batch quarantined: %v", rep.err)
	}
	if _, err := rep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := rep.Consumer().Word(0x104); got != 0 {
		t.Fatalf("uncommitted write survived rollback: %d (legacy bug: offset-4 marker not tracked)", got)
	}
	if got := rep.Consumer().Word(0x100); got != 11 {
		t.Fatalf("committed write lost in rollback: %d", got)
	}

	// The committed view of the SAME wire bytes — the walk recovery's
	// replay runs — must agree with the rolled-back replica on every
	// data word outside the marker area.
	committed := make([]byte, size)
	st := logcursor.Run(
		logcursor.NewBytesSource(b, size),
		logcursor.NewWalker(logcursor.Config{
			View: logcursor.Committed, MarkerLimit: 16, End: uint32(len(b)),
			Apply: func(r logcursor.Rec) {
				for i := 0; i < int(r.Size); i++ {
					committed[r.Off+uint32(i)] = byte(r.Value >> (8 * i))
				}
			},
		}))
	if st.Quarantined() || st.Txns != 1 {
		t.Fatalf("committed view of the stream: %+v", st)
	}
	img := rep.Image()
	if !bytes.Equal(img[16:], committed[16:]) {
		t.Fatalf("rolled-back replica differs from the committed view")
	}
}
