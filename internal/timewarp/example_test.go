package timewarp_test

import (
	"fmt"

	"lvm/internal/timewarp"
)

// Example runs one synthetic discrete-event workload three ways
// (Section 2.4, Figure 3): sequentially, optimistically on three
// schedulers with LVM state saving, and optimistically with copy-based
// state saving. All three compute the same final state. LVM rolls back
// with resetDeferredCopy plus roll-forward from the log, which costs more
// per rollback than restoring a copy, but only schedulers ahead of GVT
// roll back. The forward path, where LVM wins, is Figure 7's measurement
// (`lvmbench fig7`).
func Example() {
	const objects, words = 12, 32
	run := func(scheds int, saver timewarp.SaverKind, policy timewarp.Policy) (*timewarp.Sim, uint64, uint32) {
		sim, err := timewarp.New(timewarp.Config{
			Schedulers:          scheds,
			ObjectsPerScheduler: objects / scheds,
			ObjectBytes:         128,
			Saver:               saver,
			GVTInterval:         32,
		}, timewarp.Synthetic{
			Compute:     600,
			Writes:      6,
			ObjectWords: words,
			Horizon:     300,
			MaxDelay:    6,
			NumObjects:  objects,
		})
		if err != nil {
			panic(err)
		}
		for i := uint32(0); i < objects; i++ {
			sim.Inject(0, i, 42+i)
		}
		cycles := sim.Run(policy)
		var sum uint32
		for obj := uint32(0); obj < objects; obj++ {
			for w := 0; w < words; w++ {
				sum = sum*31 + sim.ObjectWord(obj, w)
			}
		}
		return sim, cycles, sum
	}

	seq, seqCycles, seqSum := run(1, timewarp.SaverLVM, timewarp.PolicyGlobalOrder)
	fmt.Printf("sequential:        %7d events, %9d cycles, checksum %08x\n",
		seq.TotalStats().Events, seqCycles, seqSum)
	lvm, lvmCycles, lvmSum := run(3, timewarp.SaverLVM, timewarp.PolicyRoundRobin)
	st := lvm.TotalStats()
	fmt.Printf("optimistic (LVM):  %7d events, %9d cycles, checksum %08x\n", st.Events, lvmCycles, lvmSum)
	fmt.Printf("  %d rollbacks undid %d events; %d anti-messages (%d annihilated); %d records replayed\n",
		st.Rollbacks, st.RolledBack, st.AntisSent, st.Annihilated, st.Replayed)
	cp, cpCycles, cpSum := run(3, timewarp.SaverCopy, timewarp.PolicyRoundRobin)
	fmt.Printf("optimistic (copy): %7d events, %9d cycles, checksum %08x\n",
		cp.TotalStats().Events, cpCycles, cpSum)
	// Output:
	// sequential:           1058 events,    811643 cycles, checksum 1723c8e0
	// optimistic (LVM):     1215 events,    903975 cycles, checksum 1723c8e0
	//   97 rollbacks undid 157 events; 156 anti-messages (156 annihilated); 3353 records replayed
	// optimistic (copy):    1215 events,    406115 cycles, checksum 1723c8e0
}
