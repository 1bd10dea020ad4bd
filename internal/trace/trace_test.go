package trace

import (
	"strings"
	"testing"

	"lvm/internal/core"
)

func rig(t *testing.T) (*core.System, *core.Segment, *core.Segment, *core.Process, core.Addr) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 2048})
	seg := core.NewNamedSegment(sys, "prog", 2*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 32)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, seg, ls, sys.NewProcess(0, as), base
}

func TestCountsAndPages(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	for i := uint32(0); i < 10; i++ {
		p.Store32(base+i*4, i)
	}
	p.Store32(base+core.PageSize, 1) // second page
	a := Analyze(sys, seg, ls, 5)
	if a.Records != 11 {
		t.Fatalf("records = %d", a.Records)
	}
	if len(a.PageWrites) != 2 || a.PageWrites[0] != 10 || a.PageWrites[1] != 1 {
		t.Fatalf("page writes = %v", a.PageWrites)
	}
	if a.BytesWritten != 44 {
		t.Fatalf("bytes = %d", a.BytesWritten)
	}
}

func TestHotAddresses(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	for i := 0; i < 7; i++ {
		p.Store32(base+0x40, uint32(i))
	}
	p.Store32(base+0x80, 1)
	a := Analyze(sys, seg, ls, 2)
	if len(a.HotAddrs) != 2 || a.HotAddrs[0].SegOff != 0x40 || a.HotAddrs[0].Count != 7 {
		t.Fatalf("hot addrs = %+v", a.HotAddrs)
	}
}

func TestRedundantAndRepeatedWrites(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	p.Store32(base, 5)
	p.Store32(base, 5) // redundant (same value) and repeated
	p.Store32(base, 6) // repeated only
	p.Store32(base+4, 6)
	a := Analyze(sys, seg, ls, 0)
	if a.RedundantWrites != 1 {
		t.Fatalf("redundant = %d, want 1", a.RedundantWrites)
	}
	if a.RepeatedWrites != 2 {
		t.Fatalf("repeated = %d, want 2", a.RepeatedWrites)
	}
}

func TestFormatReport(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	p.Store32(base, 1)
	s := Analyze(sys, seg, ls, 3).Format()
	if !strings.Contains(s, "records:") || !strings.Contains(s, "hottest addresses:") {
		t.Fatalf("report = %q", s)
	}
}

func TestAddressTraceOrdered(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	for i := uint32(0); i < 20; i++ {
		p.Store32(base+(i%5)*8, i)
	}
	tr := AddressTrace(sys, seg, ls)
	if len(tr) != 20 {
		t.Fatalf("trace length = %d", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Timestamp < tr[i-1].Timestamp {
			t.Fatalf("trace out of order at %d", i)
		}
	}
	if tr[3].Value != 3 {
		t.Fatalf("trace value = %d", tr[3].Value)
	}
}

func TestCPUAttribution(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	p.Store32(base, 1)
	a := Analyze(sys, seg, ls, 0)
	if a.CPUWrites[0] != 1 {
		t.Fatalf("cpu attribution = %v", a.CPUWrites)
	}
}

func TestCacheSimDirectMapped(t *testing.T) {
	c, err := NewCacheSim(64, 16, 1) // 4 lines, direct-mapped
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x00) {
		t.Fatalf("cold access hit")
	}
	if !c.Access(0x04) {
		t.Fatalf("same-line access missed")
	}
	// 0x40 conflicts with 0x00 (same set, 4 sets of 16B).
	if c.Access(0x40) {
		t.Fatalf("conflicting access hit")
	}
	if c.Access(0x00) {
		t.Fatalf("evicted line still present")
	}
	if c.Misses != 3 || c.Accesses != 4 {
		t.Fatalf("stats: %d/%d", c.Misses, c.Accesses)
	}
}

func TestCacheSimAssociativityHelps(t *testing.T) {
	// Two conflicting lines ping-ponging: direct-mapped thrashes, 2-way
	// holds both.
	dm, _ := NewCacheSim(64, 16, 1)
	tw, _ := NewCacheSim(64, 16, 2)
	for i := 0; i < 20; i++ {
		dm.Access(0x00)
		dm.Access(0x40)
		tw.Access(0x00)
		tw.Access(0x40)
	}
	if dm.MissRate() < 0.9 {
		t.Fatalf("direct-mapped did not thrash: %.2f", dm.MissRate())
	}
	if tw.MissRate() > 0.1 {
		t.Fatalf("2-way thrashing: %.2f", tw.MissRate())
	}
}

func TestCacheSimLRU(t *testing.T) {
	c, _ := NewCacheSim(32, 16, 2) // one set, 2 ways
	c.Access(0x00)
	c.Access(0x10)
	c.Access(0x00) // refresh 0x00: 0x10 becomes LRU
	c.Access(0x20) // evicts 0x10
	if !c.Access(0x00) {
		t.Fatalf("MRU line evicted (not LRU)")
	}
	if c.Access(0x10) {
		t.Fatalf("LRU line survived")
	}
}

func TestSimulateCacheFromLog(t *testing.T) {
	sys, seg, ls, p, base := rig(t)
	// Sequential writes over 2 KiB: with a 1 KiB cache, 16B lines, the
	// second pass misses everything (capacity), first pass misses once
	// per line.
	for pass := 0; pass < 2; pass++ {
		for off := uint32(0); off < 2048; off += 16 {
			p.Store32(base+off, off)
		}
	}
	c, err := SimulateCache(sys, seg, ls, 1024, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accesses != 256 {
		t.Fatalf("accesses = %d", c.Accesses)
	}
	if c.Misses != 256 {
		t.Fatalf("misses = %d, want 256 (sequential sweep larger than cache)", c.Misses)
	}
	// A cache big enough holds the working set: second pass all hits.
	c2, _ := SimulateCache(sys, seg, ls, 4096, 16, 0)
	if c2.Misses != 128 {
		t.Fatalf("large-cache misses = %d, want 128 cold misses", c2.Misses)
	}
}

func TestCacheSimBadGeometry(t *testing.T) {
	if _, err := NewCacheSim(100, 16, 1); err == nil {
		t.Fatalf("non-multiple capacity accepted")
	}
	if _, err := NewCacheSim(0, 16, 1); err == nil {
		t.Fatalf("zero capacity accepted")
	}
}

// AddressTrace exports the log as a plain (offset, size, value, timestamp)
// trace suitable as memory-system-simulator input.
func AddressTrace(sys *core.System, seg, ls *core.Segment) []core.Record {
	r := core.NewLogReader(sys, ls)
	var out []core.Record
	for {
		rec, ok := r.Next()
		if !ok {
			return out
		}
		if rec.Seg == seg {
			out = append(out, rec)
		}
	}
}
