package recovery

// The pre-logcursor Replay, frozen verbatim (metrics dropped — they are
// side effects, not results). The differential tests run it against the
// cursor-based Replay on the same machines and require byte-identical
// images and results, so the refactor onto internal/logcursor cannot
// silently change recovery semantics. The two intentional divergences —
// sub-word marker-area stores quarantine instead of corrupting the
// transaction bracketing, and LastSeq keeps the maximum committed
// sequence instead of the last one — are each pinned by their own
// regression test below and excluded from the comparison by detection,
// never by loosening it.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
)

func legacyValid(rec core.Record) bool {
	if rec.Seg == nil {
		return false
	}
	if !logcursor.ValidWrite(rec.SegOff, rec.WriteSize, rec.Seg.Size()) {
		return false
	}
	if rec.Seg.IsLog() {
		return false
	}
	return true
}

func legacyApply(res *Result, dst *core.Segment, rec core.Record) {
	if dst != nil {
		dst.RawWrite(rec.SegOff, binary.LittleEndian.AppendUint32(nil, rec.Value)[:rec.WriteSize])
	}
	res.Applied++
}

// legacyReplay is the sequential Replay as it stood before the logcursor
// unification.
func legacyReplay(sys *core.System, o ReplayOptions) Result {
	res := Result{QuarantinedFrom: NoQuarantine}
	if sys.K.Log != nil {
		res.LostRecords = sys.K.Log.RecordsLost
	}
	r := core.NewLogReader(sys, o.Log)
	if o.End != 0 {
		r.SetEnd(o.End)
	}
	if start := o.Start - o.Start%logrec.Size; start > 0 {
		if start > r.End() {
			start = r.End() - r.End()%logrec.Size
		}
		if err := r.Seek(start); err != nil {
			res.QuarantinedFrom = 0
			res.QuarantinedBytes = r.End()
			return res
		}
	}
	var batch []core.Record
	for {
		off := r.Offset()
		rec, ok := r.Next()
		if !ok {
			break
		}
		res.Scanned++
		if !legacyValid(rec) {
			res.InvalidRecords++
			res.QuarantinedFrom = off
			res.QuarantinedBytes = r.End() - off
			res.IncompleteTail += len(batch)
			return res
		}
		if rec.Seg != o.Data {
			res.Skipped++
			continue
		}
		if !o.ApplyAll && rec.SegOff < o.MarkerLimit {
			if rec.Value&MarkerCommit != 0 {
				res.LastSeq = rec.Value &^ MarkerCommit
				res.Txns++
				for _, b := range batch {
					legacyApply(&res, o.Dst, b)
				}
				batch = batch[:0]
			} else {
				batch = batch[:0]
			}
			continue
		}
		if o.ApplyAll {
			legacyApply(&res, o.Dst, rec)
		} else {
			batch = append(batch, rec)
		}
	}
	res.IncompleteTail += len(batch)
	return res
}

// legacyDivergences pre-scans the log under o's bounds and reports the
// two conditions under which the new Replay intentionally differs from
// the legacy one: a sub-word store into the marker area within the
// legacy-walkable prefix (new: quarantine; legacy: misread as a marker),
// and a committed sequence that regresses (new: LastSeq keeps the max).
func legacyDivergences(sys *core.System, o ReplayOptions) (markerViolation, nonMonotonic bool) {
	r := core.NewLogReader(sys, o.Log)
	if o.End != 0 {
		r.SetEnd(o.End)
	}
	start := o.Start - o.Start%logrec.Size
	if start > r.End() {
		start = r.End() - r.End()%logrec.Size
	}
	if r.Seek(start) != nil {
		return false, false
	}
	var last uint32
	for {
		rec, ok := r.Next()
		if !ok {
			return
		}
		if !legacyValid(rec) {
			return
		}
		if rec.Seg != o.Data || o.ApplyAll {
			continue
		}
		if rec.SegOff < o.MarkerLimit {
			if rec.WriteSize != 4 {
				markerViolation = true
				return
			}
			if rec.Value&MarkerCommit != 0 {
				seq := rec.Value &^ MarkerCommit
				if seq < last {
					nonMonotonic = true
				} else {
					last = seq
				}
			}
		}
	}
}

// diffReplay runs legacy, sequential, and parallel replays of o over
// fresh destination segments and fails the test on any divergence not
// covered by the intentional-fix detection above.
func diffReplay(t *testing.T, sys *core.System, o ReplayOptions, dstSize uint32) {
	t.Helper()
	markerViolation, nonMonotonic := legacyDivergences(sys, o)

	run := func(name string, workers int, replay func(*core.System, ReplayOptions) Result) (Result, []byte) {
		oo := o
		oo.Workers = workers
		oo.Dst = core.NewNamedSegment(sys, name, dstSize, nil)
		res := replay(sys, oo)
		return res, oo.Dst.RawRead(0, dstSize)
	}
	lres, limg := run("diff-legacy", 0, legacyReplay)
	sres, simg := run("diff-seq", 0, Replay)
	pres, pimg := run("diff-par", 4, Replay)

	// Sequential and parallel must agree unconditionally.
	if sres != pres {
		t.Fatalf("sequential vs parallel results differ:\n seq %+v\n par %+v", sres, pres)
	}
	if !bytes.Equal(simg, pimg) {
		t.Fatalf("sequential vs parallel images differ")
	}
	if markerViolation {
		// The one legal legacy divergence: the new walk quarantines at the
		// protocol violation. Everything it did apply must still be a
		// prefix legacy agrees with — but the full comparison is off.
		if !sres.Quarantined() {
			t.Fatalf("marker violation present but new replay did not quarantine: %+v", sres)
		}
		return
	}
	cmp := sres
	cmp.NonMonotonicCommits = 0
	if nonMonotonic {
		// LastSeq semantics intentionally differ (max vs last); everything
		// else must still match.
		cmp.LastSeq = lres.LastSeq
	}
	if cmp != lres {
		t.Fatalf("legacy vs cursor results differ:\n legacy %+v\n cursor %+v", lres, sres)
	}
	if !nonMonotonic && sres.NonMonotonicCommits != 0 {
		t.Fatalf("NonMonotonicCommits = %d on a monotone log", sres.NonMonotonicCommits)
	}
	if !bytes.Equal(limg, simg) {
		t.Fatalf("legacy vs cursor images differ")
	}
}

// TestReplayMatchesLegacy drives the differential harness over the
// replay shapes every consumer depends on: committed transactions with
// an uncommitted tail, abandoned transactions, foreign-segment records
// sharing the log, a corrupt mid-log record, an end override, a
// checkpoint-skip start, and apply-all mode.
func TestReplayMatchesLegacy(t *testing.T) {
	build := func(t *testing.T) (*core.System, *core.Segment, *core.Segment, *core.Process, core.Addr, core.Addr) {
		t.Helper()
		sys, seg, ls, p, base := logRig(t)
		other := core.NewNamedSegment(sys, "other", segSize, nil)
		oreg := core.NewStdRegion(sys, other)
		if err := oreg.Log(ls); err != nil {
			t.Fatal(err)
		}
		obase, err := oreg.Bind(p.AS, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sys, seg, ls, p, base, obase
	}

	t.Run("committed-plus-tail", func(t *testing.T) {
		sys, seg, ls, p, base, obase := build(t)
		p.Store32(base, 1)
		p.Store32(base+0x100, 11)
		p.Store16(base+0x104, 0xBEEF)
		p.Store8(base+0x107, 0x7)
		p.Store32(obase+0x40, 77) // foreign segment, same log
		p.Store32(base, 1|MarkerCommit)
		p.Store32(base, 2)
		p.Store32(base+0x200, 99) // uncommitted tail
		sys.Sync()
		diffReplay(t, sys, ReplayOptions{Log: ls, Data: seg, MarkerLimit: markerLimit}, segSize)
	})

	t.Run("abandoned-txn", func(t *testing.T) {
		sys, seg, ls, p, base, _ := build(t)
		p.Store32(base, 1)
		p.Store32(base+0x100, 11)
		p.Store32(base, 2) // begin drops txn 1
		p.Store32(base+0x104, 22)
		p.Store32(base, 2|MarkerCommit)
		sys.Sync()
		diffReplay(t, sys, ReplayOptions{Log: ls, Data: seg, MarkerLimit: markerLimit}, segSize)
	})

	t.Run("corrupt-mid-log", func(t *testing.T) {
		sys, seg, ls, p, base, _ := build(t)
		for i := uint32(1); i <= 3; i++ {
			p.Store32(base, i)
			p.Store32(base+0x100+4*i, 100+i)
			p.Store32(base, i|MarkerCommit)
		}
		sys.Sync()
		ls.RawWrite(4*logrec.Size+8, []byte{7, 0}) // impossible WriteSize
		diffReplay(t, sys, ReplayOptions{Log: ls, Data: seg, MarkerLimit: markerLimit}, segSize)
	})

	t.Run("end-override", func(t *testing.T) {
		sys, seg, ls, p, base, _ := build(t)
		p.Store32(base, 1)
		p.Store32(base+0x100, 11)
		p.Store32(base, 1|MarkerCommit)
		sys.Sync()
		diffReplay(t, sys, ReplayOptions{
			Log: ls, Data: seg, MarkerLimit: markerLimit, End: 2 * logrec.Size,
		}, segSize)
	})

	t.Run("start-past-unaligned-end", func(t *testing.T) {
		sys, seg, ls, p, base, _ := build(t)
		p.Store32(base, 1)
		p.Store32(base+0x100, 11)
		p.Store32(base, 1|MarkerCommit)
		sys.Sync()
		o := ReplayOptions{Log: ls, Data: seg, MarkerLimit: markerLimit, End: 40, Start: 48}
		for _, workers := range []int{1, 2} {
			o.Workers = workers
			if res := Replay(sys, o); res.Scanned != 0 || res.Quarantined() {
				t.Fatalf("Workers %d: %+v, want a clean empty replay", workers, res)
			}
		}
		o.Workers = 0
		diffReplay(t, sys, o, segSize)
	})

	t.Run("checkpoint-start", func(t *testing.T) {
		sys, seg, ls, p, base, _ := build(t)
		p.Store32(base, 1)
		p.Store32(base+0x100, 11)
		p.Store32(base, 1|MarkerCommit)
		sys.Sync()
		mark := sys.K.LogAppendOffset(ls)
		p.Store32(base, 2)
		p.Store32(base+0x200, 22)
		p.Store32(base, 2|MarkerCommit)
		sys.Sync()
		diffReplay(t, sys, ReplayOptions{
			Log: ls, Data: seg, MarkerLimit: markerLimit, Start: mark,
		}, segSize)
	})

	t.Run("apply-all", func(t *testing.T) {
		sys, seg, ls, p, base, obase := build(t)
		p.Store32(base, 1)
		p.Store32(base+0x100, 11)
		p.Store32(obase+0x80, 88)
		p.Store16(base+0x10, 0xAA) // marker-area sub-word: plain data in ApplyAll
		sys.Sync()
		diffReplay(t, sys, ReplayOptions{Log: ls, Data: seg, ApplyAll: true}, segSize)
	})
}

// TestReplayQuarantinesSubWordMarkerStore pins the first intentional
// divergence from the legacy replay: a sub-word store into the marker
// area is a protocol violation no writer emits, and the legacy scan
// misread it as a marker (its value's commit bit then decided the fate
// of the buffered transaction). The cursor quarantines from it instead.
func TestReplayQuarantinesSubWordMarkerStore(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)
	p.Store32(base, 1)
	p.Store32(base+0x100, 11)
	p.Store32(base, 1|MarkerCommit)
	p.Store32(base, 2)
	p.Store16(base+4, 0xFFFF) // sub-word store inside the marker area
	p.Store32(base+0x104, 22)
	p.Store32(base, 2|MarkerCommit)
	sys.Sync()

	dst := core.NewNamedSegment(sys, "recovered", segSize, nil)
	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst, MarkerLimit: markerLimit})
	if !res.Quarantined() || res.QuarantinedFrom != 4*logrec.Size {
		t.Fatalf("sub-word marker store not quarantined: %+v", res)
	}
	if res.Txns != 1 || res.Applied != 1 || res.LastSeq != 1 {
		t.Fatalf("committed prefix lost: %+v", res)
	}
	if dst.Read32(0x100) != 11 || dst.Read32(0x104) != 0 {
		t.Fatalf("image wrong around the violation: %d %d", dst.Read32(0x100), dst.Read32(0x104))
	}
	// Parallel path agrees.
	dst2 := core.NewNamedSegment(sys, "recovered2", segSize, nil)
	res2 := Replay(sys, ReplayOptions{Log: ls, Data: seg, Dst: dst2, MarkerLimit: markerLimit, Workers: 4})
	if res2.QuarantinedFrom != 4*logrec.Size || res2.Txns != 1 {
		t.Fatalf("parallel disagrees: %+v", res2)
	}
}

// TestReplayNonMonotonicCommitKeepsMaxSeq pins the second intentional
// divergence: a committed sequence that regresses (only a damaged or
// rewound log produces one) no longer lowers LastSeq — the maximum wins
// and the regression is counted.
func TestReplayNonMonotonicCommitKeepsMaxSeq(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)
	p.Store32(base, 5)
	p.Store32(base+0x100, 11)
	p.Store32(base, 5|MarkerCommit)
	p.Store32(base, 3)
	p.Store32(base+0x104, 22)
	p.Store32(base, 3|MarkerCommit)
	sys.Sync()

	res := Replay(sys, ReplayOptions{Log: ls, Data: seg, MarkerLimit: markerLimit})
	if res.LastSeq != 5 || res.NonMonotonicCommits != 1 || res.Txns != 2 {
		t.Fatalf("regressing commit handled wrong: %+v", res)
	}
}
