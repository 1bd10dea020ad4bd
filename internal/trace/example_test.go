package trace_test

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/trace"
)

// logDemo runs a small program against a logged region: a counter loop
// over 24 words, 64 writes in all, with a hot spot at +0x40 written on
// every third iteration.
func logDemo() (sys *core.System, seg, ls *core.Segment) {
	sys = core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 4096})
	seg = core.NewNamedSegment(sys, "demo", 4*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls = core.NewLogSegment(sys, 64)
	if err := reg.Log(ls); err != nil {
		panic(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		panic(err)
	}
	p := sys.NewProcess(0, as)
	for i := 0; i < 64; i++ {
		p.Compute(200)
		p.Store32(base+uint32(i%24)*4, uint32(i))
		if i%3 == 0 {
			p.Store32(base+0x40, uint32(i))
		}
	}
	return sys, seg, ls
}

// ExampleAnalyze reads the demo's write log as an address trace
// (Sections 1 and 2.7) and finds its hot spot.
func ExampleAnalyze() {
	sys, seg, ls := logDemo()
	fmt.Print(trace.Analyze(sys, seg, ls, 5).Format())
	// Output:
	// records:          86
	// bytes written:    344
	// pages touched:    1
	// redundant writes: 0
	// repeated writes:  2
	// hottest addresses:
	//   +0x00000040      24 writes
	//   +0x00000000       3 writes
	//   +0x00000004       3 writes
	//   +0x00000008       3 writes
	//   +0x0000000c       3 writes
}

// ExampleSimulateCache feeds the demo's write trace to a memory-system
// simulator (Section 1), sweeping the cache capacity. The demo writes 96
// bytes, six 16-byte lines, so every capacity misses only on first touch.
func ExampleSimulateCache() {
	sys, seg, ls := logDemo()
	fmt.Printf("%-10s %-8s %s\n", "capacity", "misses", "miss rate")
	for _, capacity := range []uint32{256, 1024, 4096, 16384} {
		c, err := trace.SimulateCache(sys, seg, ls, capacity, 16, 2)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10d %-8d %.3f\n", capacity, c.Misses, c.MissRate())
	}
	// Output:
	// capacity   misses   miss rate
	// 256        6        0.070
	// 1024       6        0.070
	// 4096       6        0.070
	// 16384      6        0.070
}
