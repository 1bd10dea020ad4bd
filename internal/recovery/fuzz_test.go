package recovery

import (
	"bytes"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
)

// fuzzRig builds the deterministic small system the fuzz target replays
// into: the data segment and a second one that logs to the same log,
// both bound in one address space with every page resident.
// Construction is identical every call, so physical addresses in a
// captured log resolve the same way in every iteration.
func fuzzRig() (sys *core.System, seg, ls *core.Segment, p *core.Process, base, base2 core.Addr) {
	sys = core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 256})
	seg = core.NewNamedSegment(sys, "fz-data", 4*core.PageSize, nil)
	seg2 := core.NewNamedSegment(sys, "fz-other", 2*core.PageSize, nil)
	ls = core.NewLogSegment(sys, 4)
	as := sys.NewAddressSpace()
	p = sys.NewProcess(0, as)
	bind := func(s *core.Segment) core.Addr {
		reg := core.NewStdRegion(sys, s)
		if err := reg.Log(ls); err != nil {
			panic(err)
		}
		b, err := reg.Bind(as, 0)
		if err != nil {
			panic(err)
		}
		for off := uint32(0); off < s.Size(); off += core.PageSize {
			p.Load32(b + core.Addr(off))
		}
		return b
	}
	base, base2 = bind(seg), bind(seg2)
	return sys, seg, ls, p, base, base2
}

// realLogBytes captures the byte image of a genuine marker-bracketed log
// so the fuzzer starts from inputs that exercise the apply path, not just
// the validator.
func realLogBytes() []byte {
	sys, _, ls, p, base, _ := fuzzRig()
	p.Store32(base, 1)
	p.Store32(base+0x100, 42)
	p.Store32(base+0x104, 43)
	p.Store32(base, 1|MarkerCommit)
	p.Store32(base, 2) // uncommitted tail
	p.Store32(base+0x200, 99)
	sys.Sync()
	return ls.RawRead(0, sys.K.LogAppendOffset(ls))
}

// sharedLogBytes captures a log the two segments interleave: the other
// segment's records fall inside committed transactions, between them
// and inside the open one at the end.
func sharedLogBytes() []byte {
	sys, _, ls, p, base, base2 := fuzzRig()
	p.Store32(base2+0x10, 7)
	p.Store32(base, 1)
	p.Store32(base+0x100, 42)
	p.Store32(base2+0x20, 8)
	p.Store16(base+0x106, 0x4343)
	p.Store32(base, 1|MarkerCommit)
	p.Store8(base2+0x31, 9)
	p.Store32(base, 2)
	p.Store32(base2+0x40, 10)
	p.Store32(base+0x200, 99)
	p.Store32(base, 2|MarkerCommit)
	p.Store32(base, 3)
	p.Store32(base+0x300, 5)
	p.Store32(base2+0x50, 11)
	sys.Sync()
	return ls.RawRead(0, sys.K.LogAppendOffset(ls))
}

// FuzzLogReplay feeds arbitrary bytes to the crash-recovery replay as a
// surviving log image. The invariant under test: Replay never panics and
// never applies a record that fails validation — damaged input is
// quarantined, not trusted.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))                       // zeroed tail
	f.Add([]byte("garbage that is not a record")) // short junk
	real := realLogBytes()
	f.Add(real)               // a genuine committed log
	f.Add(real[:len(real)-5]) // torn mid-record
	corrupt := append([]byte{}, real...)
	corrupt[4*logrec.Size+8] = 7 // impossible WriteSize
	f.Add(corrupt)
	shared := sharedLogBytes()
	f.Add(shared) // records of the other segment: Skipped
	bad := append([]byte{}, shared...)
	bad[9*logrec.Size+8] = 3 // a bad size in the second transaction
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, seg, ls, _, _, _ := fuzzRig()
		n := uint32(len(data))
		if n > ls.Size() {
			n = ls.Size()
		}
		if n > 0 {
			ls.RawWrite(0, data[:n])
		}
		// Every destination is resident before the first replay, so no
		// replay allocates a frame that a damaged record's address could
		// then resolve to: each walk sees the same frame owners.
		dsts := map[string]*core.Segment{}
		for _, name := range []string{"fz-dst", "fz-cursor", "fz-par", "fz-legacy"} {
			d := core.NewNamedSegment(sys, name, 4*core.PageSize, nil)
			for page := uint32(0); page < d.NumPages(); page++ {
				if _, err := d.EnsureResident(page); err != nil {
					t.Fatal(err)
				}
			}
			dsts[name] = d
		}
		dst := dsts["fz-dst"]
		o := ReplayOptions{Log: ls, Data: seg, Dst: dst, MarkerLimit: 16, End: n}
		res := Replay(sys, o)
		if res.Scanned > int(n/logrec.Size) {
			t.Fatalf("scanned %d records from %d bytes", res.Scanned, n)
		}
		if res.Applied+res.Skipped+res.InvalidRecords > res.Scanned {
			t.Fatalf("accounting exceeds scan: %+v", res)
		}
		if res.Quarantined() && res.QuarantinedFrom >= n && n > 0 {
			t.Fatalf("quarantine starts past the log end: %+v", res)
		}

		// Drive the logcursor walker directly over the same log and require
		// the committed-write set it produces to match Replay's.
		lr := core.NewLogReader(sys, ls)
		lr.SetEnd(n)
		var writes []logcursor.Rec
		w := logcursor.NewWalker(logcursor.Config{
			View: logcursor.Committed, MarkerLimit: 16, End: lr.End(),
			Apply: func(r logcursor.Rec) { writes = append(writes, r) },
		})
		st, err := logcursor.RunReader(logcursor.NewMachineReader(lr, seg), seg.Size(), w)
		if err != nil {
			t.Fatal(err)
		}
		if len(writes) != res.Applied || st.Scanned != res.Scanned || st.Skipped != res.Skipped ||
			st.Txns != res.Txns || st.QuarantinedFrom != res.QuarantinedFrom ||
			st.LastSeq != res.LastSeq {
			t.Fatalf("direct cursor walk disagrees with Replay:\n stats %+v\n result %+v", st, res)
		}
		cur := dsts["fz-cursor"]
		for _, r := range writes {
			applyRecTo(cur, r.Off, r.Value, r.Size)
		}
		if !bytes.Equal(cur.RawRead(0, 4*core.PageSize), dst.RawRead(0, 4*core.PageSize)) {
			t.Fatalf("cursor committed-write set diverges from Replay image")
		}

		// The partitioned parallel replay walks the same bytes to the same
		// result and image.
		pdst := dsts["fz-par"]
		po := o
		po.Dst, po.Workers = pdst, 2
		if pres := Replay(sys, po); pres != res || !bytes.Equal(pdst.RawRead(0, 4*core.PageSize), dst.RawRead(0, 4*core.PageSize)) {
			t.Fatalf("parallel replay diverges:\n parallel %+v\n sequential %+v", pres, res)
		}

		// Differential against the frozen pre-cursor Replay: byte-identical
		// unless the input hits one of the two pinned, intentional fixes.
		markerViolation, nonMonotonic := legacyDivergences(sys, o)
		ldst := dsts["fz-legacy"]
		lo := o
		lo.Dst = ldst
		lres := legacyReplay(sys, lo)
		if markerViolation {
			if !res.Quarantined() {
				t.Fatalf("marker violation present but cursor replay did not quarantine: %+v", res)
			}
			return
		}
		cmp := res
		cmp.NonMonotonicCommits = 0
		if nonMonotonic {
			cmp.LastSeq = lres.LastSeq
		}
		if cmp != lres {
			t.Fatalf("legacy vs cursor results differ:\n legacy %+v\n cursor %+v", lres, res)
		}
		if !bytes.Equal(ldst.RawRead(0, 4*core.PageSize), dst.RawRead(0, 4*core.PageSize)) {
			t.Fatalf("legacy vs cursor images differ")
		}
	})
}
