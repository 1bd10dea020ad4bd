package rlvm_test

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/ramdisk"
	"lvm/internal/rlvm"
)

// Example keeps a persistent account table in an RLVM recoverable region
// (Section 2.5): "persistent objects supporting atomic transactions can
// be read and written in virtual memory with the same efficiency as
// standard C++ objects". Writes are plain stores inside a transaction,
// and the LVM log supplies the redo records at commit. Abort is
// resetDeferredCopy back to the committed checkpoint plus a rewind of the
// log (Section 2.3). After a crash only the RAM disk survives, and a new
// machine recovers from its image and write-ahead log. No set_range call
// appears anywhere, and the money is conserved across abort, commit and
// crash.
func Example() {
	const accounts = 8
	disk := ramdisk.New()
	open := func() (*core.Process, *rlvm.Manager) {
		sys := core.NewSystem(core.DefaultConfig())
		p := sys.NewProcess(0, sys.NewAddressSpace())
		m, err := rlvm.New(sys, p, 4*core.PageSize, disk, rlvm.Options{})
		if err != nil {
			panic(err)
		}
		return p, m
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	balance := func(m *rlvm.Manager, acct uint32) core.Addr { return m.Base() + acct*4 }
	show := func(p *core.Process, m *rlvm.Manager, label string) {
		fmt.Printf("%-28s", label)
		for a := uint32(0); a < accounts; a++ {
			fmt.Printf(" %5d", p.Load32(balance(m, a)))
		}
		fmt.Println()
	}

	p, m := open()
	must(m.Begin())
	for a := uint32(0); a < accounts; a++ {
		must(m.RecoverableWrite32(balance(m, a), 100))
	}
	must(m.Commit())
	show(p, m, "after funding (committed):")

	must(m.Begin())
	must(m.RecoverableWrite32(balance(m, 0), 0))
	must(m.RecoverableWrite32(balance(m, 1), 200))
	show(p, m, "mid-transfer (uncommitted):")
	must(m.Abort())
	show(p, m, "after abort:")

	must(m.Begin())
	must(m.RecoverableWrite32(balance(m, 0), 40))
	must(m.RecoverableWrite32(balance(m, 1), 160))
	must(m.Commit())
	show(p, m, "after transfer (committed):")

	p2, m2 := open() // the crash: a new machine over the same disk
	show(p2, m2, "recovered state:")
	var total uint32
	for a := uint32(0); a < accounts; a++ {
		total += p2.Load32(balance(m2, a))
	}
	fmt.Printf("money conserved: %d\n", total)
	fmt.Printf("transactions: %d, LVM log records consumed at commit: %d\n", m.Stats.Txns, m.Stats.Records)
	// Output:
	// after funding (committed):     100   100   100   100   100   100   100   100
	// mid-transfer (uncommitted):      0   200   100   100   100   100   100   100
	// after abort:                   100   100   100   100   100   100   100   100
	// after transfer (committed):     40   160   100   100   100   100   100   100
	// recovered state:                40   160   100   100   100   100   100   100
	// money conserved: 800
	// transactions: 3, LVM log records consumed at commit: 12
}
