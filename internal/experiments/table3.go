package experiments

import (
	"lvm/internal/core"
	"lvm/internal/ramdisk"
	"lvm/internal/rlvm"
	"lvm/internal/rvm"
	"lvm/internal/sim"
	"lvm/internal/tpca"
)

// Table3Result reproduces Table 3: the cost of a single recoverable write
// and TPC-A throughput under RVM and RLVM.
type Table3Result struct {
	// Single recoverable write, cycles (paper: 3515 vs 16). Both include
	// the measurement loop's ~10-cycle per-iteration overhead, as the
	// prototype measurement did.
	RVMWriteCycles  float64
	RLVMWriteCycles float64

	// TPC-A (paper: 418 vs 552 trans/sec).
	RVMTPS           float64
	RLVMTPS          float64
	RLVMEstimatedTPS float64 // the paper's footnote-4 estimation method
	RVMInTxnFrac     float64
	RLVMInTxnFrac    float64
}

// loopOverheadCycles models the measurement loop (address update, loop
// branch) around each recoverable write, as in the prototype's benchmark.
const loopOverheadCycles = 10

// Table3 runs both measurements. Its four blocks (a single write and
// TPC-A, each under RVM and RLVM) boot their own systems, so they run as
// one sweep on the sim worker pool.
func Table3(txns int) (Table3Result, error) {
	var res Table3Result
	cfg := tpca.DefaultConfig()
	if txns > 0 {
		cfg.Txns = txns
	}
	var rvmRes, rlvmRes tpca.Result
	blocks := []func() error{
		func() (err error) { res.RVMWriteCycles, err = rvmWriteCycles(); return err },
		func() (err error) { res.RLVMWriteCycles, err = rlvmWriteCycles(); return err },
		func() (err error) { rvmRes, _, err = tpca.RunRVM(cfg); return err },
		func() (err error) { rlvmRes, _, err = tpca.RunRLVM(cfg); return err },
	}
	if err := sim.Do(len(blocks), func(i int) error { return blocks[i]() }); err != nil {
		return res, err
	}
	res.RVMTPS = rvmRes.TPS
	res.RLVMTPS = rlvmRes.TPS
	res.RLVMEstimatedTPS = tpca.EstimateRLVMTPS(rlvmRes, rvmRes)
	res.RVMInTxnFrac = rvmRes.InTxnFrac
	res.RLVMInTxnFrac = rlvmRes.InTxnFrac
	return res, nil
}

// rvmWriteCycles measures one recoverable write under RVM.
func rvmWriteCycles() (float64, error) {
	sys := core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: 2048})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	m, err := rvm.New(sys, p, 4*core.PageSize, ramdisk.New(), rvm.Options{})
	if err != nil {
		return 0, err
	}
	return singleWriteCycles(p, m)
}

// rlvmWriteCycles measures one recoverable write under RLVM.
func rlvmWriteCycles() (float64, error) {
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 4096})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	m, err := rlvm.New(sys, p, 4*core.PageSize, ramdisk.New(), rlvm.Options{LogPages: 64})
	if err != nil {
		return 0, err
	}
	return singleWriteCycles(p, m)
}

// recoverableMemory is what the single-write measurement needs of RVM and
// RLVM.
type recoverableMemory interface {
	Begin() error
	Base() core.Addr
	RecoverableWrite32(va core.Addr, v uint32) error
}

// singleWriteCycles opens a transaction and times 200 recoverable writes
// to one word after a warming write.
func singleWriteCycles(p *core.Process, m recoverableMemory) (float64, error) {
	if err := m.Begin(); err != nil {
		return 0, err
	}
	const n = 200
	m.RecoverableWrite32(m.Base(), 0) // warm
	start := p.Now()
	for i := uint32(0); i < n; i++ {
		p.Compute(loopOverheadCycles)
		if err := m.RecoverableWrite32(m.Base(), i); err != nil {
			return 0, err
		}
	}
	return float64(p.Now()-start) / n, nil
}

// FormatTable3 renders the result alongside the paper's values.
func FormatTable3(r Table3Result) string {
	rows := [][]string{
		{"Single write (cycles)", f1(r.RVMWriteCycles), f1(r.RLVMWriteCycles), "3515", "16"},
		{"TPC-A (trans/sec)", f1(r.RVMTPS), f1(r.RLVMTPS), "418", "552"},
		{"TPC-A est. (footnote 4)", "-", f1(r.RLVMEstimatedTPS), "-", "552"},
		{"In-transaction fraction", f2(r.RVMInTxnFrac), f2(r.RLVMInTxnFrac), "~0.25", "<0.10"},
	}
	return Table([]string{"Benchmark", "RVM", "RLVM", "paper-RVM", "paper-RLVM"}, rows)
}
