package debug_test

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/debug"
)

// Example is the debugging use of Sections 1 and 2.7. A debugger
// attaches a log segment to a running program's region, with no change
// to the program binary. The program overruns a buffer that lies below
// its balance variable and clobbers it. The debugger then asks the log
// who wrote the balance, a write watchpoint set after the fact, and
// reverse-executes from the failure back to the last good state. The
// write immediately after that position is the bug.
func Example() {
	sys := core.NewSystem(core.DefaultConfig())
	seg := core.NewNamedSegment(sys, "program-heap", 2*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		panic(err)
	}
	p := sys.NewProcess(0, as)

	// The debugger attaches logging, and checkpoints the (empty) initial
	// state for reverse execution.
	ls := core.NewLogSegment(sys, 32)
	if err := reg.Log(ls); err != nil {
		panic(err)
	}
	ckpt := core.NewNamedSegment(sys, "ckpt", 2*core.PageSize, nil)

	// The buggy program: balance at +0x100, a 128-byte buffer at +0x180,
	// and a negative-index overrun that lands on balance.
	const balanceOff, bufOff = 0x100, 0x180
	p.Store32(base+balanceOff, 5000)
	for i := uint32(0); i < 16; i++ {
		p.Compute(300)
		p.Store32(base+bufOff+i*4, 0x11110000+i)
	}
	p.Store32(base+balanceOff, 4000)        // legitimate update
	p.Store32(base+bufOff-0x80, 0xDEADBEEF) // stray write to +0x100
	p.Compute(1000)
	fmt.Printf("program finished; balance = %#x (expected 4000 = 0xfa0)\n", p.Load32(base+balanceOff))

	// 1. Watchpoint query: who wrote balance?
	w := debug.NewWatcher(sys, seg, ls)
	writes := w.WritesTo(balanceOff, 4)
	fmt.Printf("the log shows %d writes to &balance:\n", len(writes))
	for _, wi := range writes {
		fmt.Printf("  record %-3d value %08x ts=%d\n", wi.Index, wi.Value, wi.Timestamp)
	}
	bad, ok := w.FirstOverwriteAfter(balanceOff, 4, writes[1].Index+1)
	if !ok {
		panic("no write to balance after the legitimate update")
	}
	fmt.Printf("the corrupting write is record %d (value %08x)\n", bad.Index, bad.Value)

	// 2. Reverse execution back to the last state with a sane balance.
	re, err := debug.NewReverseExecutor(sys, seg, ls, ckpt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("reverse execution over %d records:\n", re.Records())
	n, err := re.FindLastGood(func(r *debug.ReverseExecutor) bool {
		v := r.Word(balanceOff)
		return v == 4000 || v == 5000 || v == 0
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  last good position: after record %d (balance = %d)\n", n-1, re.Word(balanceOff))
	if err := re.StepBack(); err != nil {
		panic(err)
	}
	fmt.Printf("  one more step back: balance = %d\n", re.Word(balanceOff))
	// Output:
	// program finished; balance = 0xdeadbeef (expected 4000 = 0xfa0)
	// the log shows 3 writes to &balance:
	//   record 0   value 00001388 ts=781
	//   record 17  value 00000fa0 ts=2007
	//   record 18  value deadbeef ts=2008
	// the corrupting write is record 18 (value deadbeef)
	// reverse execution over 19 records:
	//   last good position: after record 17 (balance = 4000)
	//   one more step back: balance = 5000
}
