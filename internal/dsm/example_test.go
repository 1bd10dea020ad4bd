package dsm_test

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/dsm"
)

// Example compares log-based consistency for producer-consumer sharing
// (Section 2.6) with Munin-style twin/diff on identical machines. A
// producer makes 40 sparse updates across 8 pages inside a critical
// section, and lock release must carry them to the consumer's replica.
// With LVM the hardware already enumerated the updates in the log, so
// release-time work is just synchronizing with the end of the log. Munin
// pays a protection fault and a page twin on first touch and a
// word-by-word diff of every twinned page at release. Log-based
// consistency pays a write-through per store but needs no faults, twins
// or page diffs.
func Example() {
	const size = 8 * core.PageSize
	consumer := func(sys *core.System) *dsm.Consumer {
		c, err := dsm.NewConsumer(sys, sys.NewProcess(1, sys.NewAddressSpace()), size)
		if err != nil {
			panic(err)
		}
		return c
	}
	sysL := core.NewSystem(core.DefaultConfig())
	prodL, err := dsm.NewLVMProducer(sysL, sysL.NewProcess(0, sysL.NewAddressSpace()), size, 64)
	if err != nil {
		panic(err)
	}
	consL := consumer(sysL)
	sysM := core.NewSystem(core.DefaultConfig())
	prodM, err := dsm.NewMuninProducer(sysM, sysM.NewProcess(0, sysM.NewAddressSpace()), size)
	if err != nil {
		panic(err)
	}
	consM := consumer(sysM)

	for i := uint32(0); i < 40; i++ {
		off := (i * 820) % size &^ 3
		prodL.Write(off, 0xAA000000+i)
		prodM.Write(off, 0xAA000000+i)
	}
	msgL, stL := prodL.Release()
	msgM, stM := prodM.Release()
	consL.Apply(msgL)
	consM.Apply(msgM)
	if err := dsm.Verify(dsm.SegmentOf(prodL), consL, size); err != nil {
		panic(err)
	}
	if err := dsm.Verify(dsm.SegmentOf(prodM), consM, size); err != nil {
		panic(err)
	}
	fmt.Println("both replicas consistent with the producer")
	fmt.Printf("%-22s %12s %12s\n", "", "log-based", "munin")
	fmt.Printf("%-22s %12d %12d\n", "write-path cycles", prodL.WriteCycles(), prodM.WriteCycles())
	fmt.Printf("%-22s %12d %12d\n", "release cycles", stL.Cycles, stM.Cycles)
	fmt.Printf("%-22s %12d %12d\n", "bytes transmitted", stL.Bytes, stM.Bytes)
	fmt.Printf("%-22s %12d %12d\n", "entries", stL.Entries, stM.Entries)
	// Output:
	// both replicas consistent with the producer
	//                           log-based        munin
	// write-path cycles               296        61507
	// release cycles                 1600        27776
	// bytes transmitted               352          352
	// entries                          40           40
}
