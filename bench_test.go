// Package lvm_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (Section 4), plus
// ablation benches for the design choices called out in DESIGN.md.
//
// Each benchmark drives the same experiment code as cmd/lvmbench and
// reports the paper's metric via b.ReportMetric (simulated cycles,
// speedups, trans/sec), so `go test -bench=. -benchmem` regenerates the
// evaluation. Wall-clock ns/op measures the simulator, not the modeled
// machine; the custom metrics are the reproduction.
package lvm_test

import (
	"testing"

	"lvm/internal/core"
	"lvm/internal/experiments"
	"lvm/internal/timewarp"
	"lvm/internal/tpca"
)

// BenchmarkTable2 checks the basic machine operations (Table 2).
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.TotalCycle), r.Operation[:4]+"_total_cycles")
	}
}

// BenchmarkTable3SingleWrite measures the single recoverable write
// (Table 3, line 1: paper 3515 vs 16 cycles).
func BenchmarkTable3SingleWrite(b *testing.B) {
	var res experiments.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table3(60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RVMWriteCycles, "rvm_cycles/write")
	b.ReportMetric(res.RLVMWriteCycles, "rlvm_cycles/write")
}

// BenchmarkTable3TPCA measures TPC-A throughput (Table 3, line 2: paper
// 418 vs 552 trans/sec).
func BenchmarkTable3TPCA(b *testing.B) {
	cfg := tpca.DefaultConfig()
	cfg.Txns = 200
	var rvmTPS, rlvmTPS float64
	for i := 0; i < b.N; i++ {
		rv, _, err := tpca.RunRVM(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rl, _, err := tpca.RunRLVM(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rvmTPS, rlvmTPS = rv.TPS, rl.TPS
	}
	b.ReportMetric(rvmTPS, "rvm_tps")
	b.ReportMetric(rlvmTPS, "rlvm_tps")
}

// BenchmarkFig7 measures the headline Figure 7 point and the speedup
// trend over compute grain (LVM vs copy-based checkpointing).
func BenchmarkFig7(b *testing.B) {
	var sSmallC, sLargeC float64
	for i := 0; i < b.N; i++ {
		var err error
		sSmallC, _, _, err = timewarp.Speedup(256, 256, 8, 200)
		if err != nil {
			b.Fatal(err)
		}
		sLargeC, _, _, err = timewarp.Speedup(4096, 256, 8, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sSmallC, "speedup_c256")
	b.ReportMetric(sLargeC, "speedup_c4096")
}

// BenchmarkFig8 measures the fraction-written sweep endpoints for the
// s=256, c=2048 curve.
func BenchmarkFig8(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		var err error
		lo, _, _, err = timewarp.Speedup(2048, 256, 8, 200) // 1/8 written
		if err != nil {
			b.Fatal(err)
		}
		hi, _, _, err = timewarp.Speedup(2048, 256, 64, 200) // fully written
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lo, "speedup_frac0.125")
	b.ReportMetric(hi, "speedup_frac1.0")
}

// BenchmarkFig9 measures resetDeferredCopy vs bcopy for the 512 KiB
// segment (Figure 9, middle panel).
func BenchmarkFig9(b *testing.B) {
	var points []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.SegmentBytes == 512<<10 && (p.DirtyKB == 64 || p.DirtyKB == 512) {
			b.ReportMetric(float64(p.ResetCycles)/1000, "reset_kcycles_dirty"+itoa(int(p.DirtyKB)))
		}
		if p.SegmentBytes == 512<<10 && p.DirtyKB == 0 {
			b.ReportMetric(float64(p.BcopyCycles)/1000, "bcopy_kcycles")
		}
	}
	b.ReportMetric(experiments.Crossover(points, 512<<10), "crossover_fraction")
}

// BenchmarkFig10 measures the per-write cost with and without logging for
// the 4-write cluster at moderate compute grain.
func BenchmarkFig10(b *testing.B) {
	var points []experiments.Fig10Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig10(600)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Cluster == 4 && p.Compute == 400 {
			name := "unlogged_cycles/write"
			if p.Logged {
				name = "logged_cycles/write"
			}
			b.ReportMetric(p.CyclesPerWrite, name)
		}
	}
}

// BenchmarkFig11 measures the total per-iteration cost at the overload
// point (c=0) and past the threshold (c=45).
func BenchmarkFig11(b *testing.B) {
	var points []experiments.Fig11Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig11([]uint64{0, 45}, 2000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Compute == 0 {
			b.ReportMetric(p.LoggedCyclesIter, "logged_cycles/iter_c0")
		}
		if p.Compute == 45 {
			b.ReportMetric(p.LoggedCyclesIter, "logged_cycles/iter_c45")
		}
	}
}

// BenchmarkFig12 measures the overload-event rate at c=0 (Figure 12).
func BenchmarkFig12(b *testing.B) {
	var points []experiments.Fig11Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig11([]uint64{0, 27}, 3000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].OverloadsPer1000, "overloads/1000iter_c0")
	b.ReportMetric(points[1].OverloadsPer1000, "overloads/1000iter_c27")
}

// BenchmarkAblationLoggerModels compares the prototype bus logger against
// the Section 4.6 on-chip design.
func BenchmarkAblationLoggerModels(b *testing.B) {
	var pts []experiments.LoggerModelPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.LoggerModels([]uint64{50}, 2000)
	}
	b.ReportMetric(pts[0].PrototypeWrite, "prototype_cycles/write")
	b.ReportMetric(pts[0].OnChipWrite, "onchip_cycles/write")
	b.ReportMetric(pts[0].UnloggedWrite, "unlogged_cycles/write")
}

// BenchmarkAblationConsistency compares log-based consistency with Munin
// twin/diff.
func BenchmarkAblationConsistency(b *testing.B) {
	var pts []experiments.ConsistencyPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Consistency(200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].MuninCycles), "munin_cycles")
	b.ReportMetric(float64(pts[0].LVMCycles), "lvm_cycles")
	b.ReportMetric(float64(pts[1].LVMBytes)/float64(pts[1].MuninBytes), "lvm_bytes_ratio_repeated")
}

// BenchmarkAblationSetRangeAmortization compares per-write set_range,
// amortized set_range, and RLVM.
func BenchmarkAblationSetRangeAmortization(b *testing.B) {
	var r experiments.SetRangeResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.SetRangeAblation(64)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerWriteRVM, "perwrite_cycles")
	b.ReportMetric(r.AmortizedRVM, "amortized_cycles")
	b.ReportMetric(r.RLVM, "rlvm_cycles")
}

// BenchmarkAblationCheckpointStyles compares deferred-copy rollback with
// Li/Appel write-protect checkpointing.
func BenchmarkAblationCheckpointStyles(b *testing.B) {
	var pts []experiments.CheckpointStylePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.CheckpointStyles(64, []int{4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].DeferredCycles), "deferred_cycles")
	b.ReportMetric(float64(pts[0].WriteProtCycles), "writeprotect_cycles")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationOnChipFullStack compares the Section 4.6 kernel with
// the prototype through the complete VM stack.
func BenchmarkAblationOnChipFullStack(b *testing.B) {
	var pts []experiments.FullStackPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.FullStackOnChip([]uint64{50}, 1500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].PrototypeIter, "prototype_cycles/iter")
	b.ReportMetric(pts[0].OnChipIter, "onchip_cycles/iter")
	b.ReportMetric(pts[0].UnloggedIter, "unlogged_cycles/iter")
}

// BenchmarkExtensionParallelSim runs complete 4-scheduler optimistic
// simulations (rollbacks included) under both state savers.
func BenchmarkExtensionParallelSim(b *testing.B) {
	var pts []experiments.ParallelSimResult
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.ParallelSim(4, 200, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].Elapsed), "lvm_elapsed_cycles")
	b.ReportMetric(float64(pts[2].Elapsed), "copy_elapsed_cycles")
	b.ReportMetric(float64(pts[0].Rollbacks), "lvm_rollbacks")
}

// BenchmarkSimulatorThroughput measures the host-side speed of the
// simulator itself: simulated logged stores per wall-clock second. This
// is about the Go implementation, not the modeled machine. The warmed
// steady state is allocation-free (TestLoggedStoreZeroAlloc pins that).
func BenchmarkSimulatorThroughput(b *testing.B) {
	sl, err := experiments.NewStoreLoop()
	if err != nil {
		b.Fatal(err)
	}
	if err := sl.Warm(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl.Step()
	}
	b.StopTimer()
	if err := sl.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNewSystem measures booting one machine. Every sweep point
// boots its own, so B/op here times several hundred is a pass's fixed
// allocation cost (TestNewSystemAllocBudget pins the bytes).
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSystem = core.NewSystem(core.Config{})
	}
}

var sinkSystem *core.System

// BenchmarkExtensionOODB measures the object-database speedup at short
// and long transactions (the Section 4.2 prediction that longer
// transactions benefit more from LVM).
func BenchmarkExtensionOODB(b *testing.B) {
	var pts []experiments.OODBPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.OODB([]int{1, 32}, 25)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Speedup, "speedup_txnlen1")
	b.ReportMetric(pts[1].Speedup, "speedup_txnlen32")
}
