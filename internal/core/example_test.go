package core_test

import (
	"fmt"
	"strings"

	"lvm/internal/core"
)

// Example reproduces the code sample of Section 2.2 of the paper and
// prints the log records a pair of stores produced.
func Example() {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 1024})
	segA := core.NewStdSegment(sys, 64*1024, nil) // new StdSegment(size)
	regR := core.NewStdRegion(sys, segA)          // new StdRegion(seg_a)
	ls := core.NewLogSegment(sys, 4)              // new LogSegment()
	if err := regR.Log(ls); err != nil {          // reg_r->log(ls)
		panic(err)
	}
	as := sys.NewAddressSpace()
	base, err := regR.Bind(as, 0) // reg_r->bind(as)
	if err != nil {
		panic(err)
	}

	p := sys.NewProcess(0, as)
	p.Store32(base+0x10, 0xC0DE)
	p.Store16(base+0x20, 0xBEEF)

	r := core.NewLogReader(sys, ls)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		fmt.Printf("+%#04x %08x size=%d\n", rec.SegOff, rec.Value, rec.WriteSize)
	}
	// Output:
	// +0x0010 0000c0de size=4
	// +0x0020 0000beef size=2
}

// ExampleSegment_SetSourceSegment shows deferred copy (Section 2.3):
// reads come from the source until written; resetDeferredCopy rolls back.
func ExampleSegment_SetSourceSegment() {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 1024})
	ckpt := core.NewNamedSegment(sys, "checkpoint", core.PageSize, nil)
	ckpt.Write32(0, 42)
	work := core.NewNamedSegment(sys, "working", core.PageSize, nil)
	if err := work.SetSourceSegment(ckpt, 0); err != nil {
		panic(err)
	}
	fmt.Println("initial:", work.Read32(0))
	work.Write32(0, 99)
	fmt.Println("after write:", work.Read32(0), "— checkpoint still:", ckpt.Read32(0))
	if _, err := sys.K.ResetDeferredCopySegment(work, nil); err != nil {
		panic(err)
	}
	fmt.Println("after reset:", work.Read32(0))
	// Output:
	// initial: 42
	// after write: 99 — checkpoint still: 42
	// after reset: 42
}

// ExampleLogReader_ApplyWhile shows checkpoint roll-forward (the CULT
// primitive of Section 2.4).
func ExampleLogReader_ApplyWhile() {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 1024})
	seg := core.NewStdSegment(sys, core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 4)
	if err := reg.Log(ls); err != nil {
		panic(err)
	}
	as := sys.NewAddressSpace()
	base, _ := reg.Bind(as, 0)
	p := sys.NewProcess(0, as)
	p.Store32(base, 7)
	p.Store32(base+4, 8)

	ckpt := core.NewNamedSegment(sys, "ckpt", core.PageSize, nil)
	r := core.NewLogReader(sys, ls)
	n := r.ApplyWhile(seg, ckpt, func(core.Record) bool { return true })
	fmt.Println("applied", n, "records:", ckpt.Read32(0), ckpt.Read32(4))
	// Output:
	// applied 2 records: 7 8
}

// Example_visualize is the visualization use of Section 2.6: "A program
// supporting visualization can set the segment containing its state to
// be logged. A separate process can then interpret this log and display
// the visual representation of the program."
//
// The simulation draws a bouncing particle into a state region logged in
// direct-mapped mode, so each store lands at the same offset of the log
// segment, the mapped frame buffer. The display renders every frame from
// that log segment and never touches the application's memory. A second
// region, logged in indexed mode, streams the particle's positions as
// bare values for a telemetry consumer. No application cycle is spent
// rendering.
func Example_visualize() {
	const gridW, gridH, frames = 32, 8, 2
	sys := core.NewSystem(core.DefaultConfig())

	state := core.NewNamedSegment(sys, "sim-state", core.PageSize, nil)
	reg := core.NewStdRegion(sys, state)
	reg.SetLogMode(core.ModeDirect)
	display := core.NewLogSegment(sys, 1)
	if err := reg.Log(display); err != nil {
		panic(err)
	}
	coords := core.NewNamedSegment(sys, "coords", core.PageSize, nil)
	creg := core.NewStdRegion(sys, coords)
	creg.SetLogMode(core.ModeIndexed)
	stream := core.NewLogSegment(sys, 4)
	if err := creg.Log(stream); err != nil {
		panic(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		panic(err)
	}
	cbase, err := creg.Bind(as, 0)
	if err != nil {
		panic(err)
	}
	p := sys.NewProcess(0, as)

	x, y, dx, dy := 2, 1, 3, 1
	for f := 0; f < frames; f++ {
		p.Compute(2000) // the physics
		// Erase, move, draw: ordinary stores into the state region.
		p.Store8(base+uint32(y*gridW+x), 0)
		x += dx
		y += dy
		if x <= 0 || x >= gridW-1 {
			dx = -dx
			x += 2 * dx
		}
		if y <= 0 || y >= gridH-1 {
			dy = -dy
			y += 2 * dy
		}
		p.Store8(base+uint32(y*gridW+x), 1)
		p.Store32(cbase, uint32(x)<<16|uint32(y))

		// The display process synchronizes only on the end of the log.
		sys.Sync()
		fmt.Printf("frame %d:\n", f)
		for row := 0; row < gridH; row++ {
			line := display.RawRead(uint32(row*gridW), gridW)
			out := make([]byte, gridW)
			for i, b := range line {
				out[i] = '.'
				if b != 0 {
					out[i] = '*'
				}
			}
			fmt.Printf("  %s\n", out)
		}
	}

	var pos []string
	for _, v := range core.ReadIndexed(sys, stream) {
		pos = append(pos, fmt.Sprintf("(%d,%d)", v>>16, v&0xFFFF))
	}
	fmt.Printf("indexed telemetry stream (%d positions): %s\n", len(pos), strings.Join(pos, " "))
	fmt.Printf("application cycles: %d\n", p.Now())
	// Output:
	// frame 0:
	//   ................................
	//   ................................
	//   .....*..........................
	//   ................................
	//   ................................
	//   ................................
	//   ................................
	//   ................................
	// frame 1:
	//   ................................
	//   ................................
	//   ................................
	//   ........*.......................
	//   ................................
	//   ................................
	//   ................................
	//   ................................
	// indexed telemetry stream (2 positions): (5,2) (8,3)
	// application cycles: 10276
}
