package main

import (
	_ "embed"
	"fmt"
	"math"
	"strings"
	"time"

	"lvm/internal/experiments"
	"lvm/internal/metrics"
)

// storeBlock is how many logged stores one sim_store operation is: a
// block long enough that reading the clock around it costs under 0.1%.
// A block of 1000 makes op_p50_us read as host nanoseconds per store.
const storeBlock = 1000

// simStoreWarm is the fixed warm-up, in stores, that is part of
// sim_store's set-up.
const simStoreWarm = 1_000_000

func newWarmStoreLoop(warm int) (*experiments.StoreLoop, error) {
	sl, err := experiments.NewStoreLoop()
	if err != nil {
		return nil, err
	}
	if err := sl.Warm(); err != nil {
		return nil, err
	}
	for i := 0; i < warm; i++ {
		sl.Step()
	}
	return sl, sl.Err()
}

// storePhase runs blocks of stores for total and records each block.
func storePhase(sl *experiments.StoreLoop, total time.Duration, tr *tracer) (latencySummary, int) {
	rec := newRecorder(int(total.Seconds()*100e3)+1024, total/(measuredSlices+1), measuredSlices+1)
	start := time.Now()
	blocks := 0
	for {
		t0 := time.Since(start)
		if t0 >= total {
			break
		}
		sp := tr.begin("machine.store_block", -1, blocks)
		for i := 0; i < storeBlock; i++ {
			sl.Step()
		}
		tr.endCalls(sp, storeBlock)
		t1 := time.Since(start)
		rec.add(int64(t1), int64(t1-t0))
		blocks++
	}
	return summarize([]*recorder{rec}), blocks
}

func runSimStore(c *runCtx) (*result, error) {
	res := newResult(c, "sim_store")
	v := &verdict{}
	res.Info["op"] = fmt.Sprintf("block of %d logged stores", storeBlock)

	var sl *experiments.StoreLoop
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if sl, err = newWarmStoreLoop(c.count(simStoreWarm)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setDist("setup_s", distOf(setups, len(setups)))

	before := readHostUsage()
	t, err := c.runTimed(1<<17, func(total time.Duration, tr *tracer) (latencySummary, int, error) {
		sum, blocks := storePhase(sl, total, tr)
		return sum, blocks, nil
	})
	if err != nil {
		return nil, err
	}
	res.setHost(before, readHostUsage(), t.ops)
	res.setDist("op_p50_us", t.plain.p50us)
	res.setDist("workload.op_p99_us", t.plain.p99us)
	res.setDist("ops_per_s", t.plain.perSec)
	v.expect(t.plain.dropped+t.traced.dropped == 0, "latency recorder overflowed")

	// Every store must be accounted for: snooped, and either DMAed into
	// the log or absorbed into a pending record; none lost.
	v.expect(sl.Err() == nil, "store loop: %v", sl.Err())
	sl.Sys.Sync()
	cn := sl.Sys.MetricsSnapshot().Counters
	stores := cn["machine.stores"]
	v.expect(stores > 0 && cn["hwlogger.records_dmaed"]+cn["hwlogger.records_absorbed"] == stores,
		"stores %d != records dmaed %d + absorbed %d", stores, cn["hwlogger.records_dmaed"], cn["hwlogger.records_absorbed"])
	lost := cn["hwlogger.records_lost"] + cn["hwlogger.records_lost_total"] + cn["vm.log_records_lost_absorbed"]
	v.expect(lost == 0, "%d log records lost", lost)
	v.add(t.ops*storeBlock, 0)

	if c.trace {
		if err := traceSim(c, res, t); err != nil {
			return nil, err
		}
	}
	res.finish(v)
	return res, nil
}

// simCounterPass runs a fixed number of stores on a fresh, warmed store
// loop and reports the simulated machine's counters over exactly those
// stores. The count is fixed, so every value repeats exactly from run to
// run and commit to commit unless the modelled machine changes.
func simCounterPass(c *runCtx, res *result) error {
	sl, err := newWarmStoreLoop(0)
	if err != nil {
		return err
	}
	sl.Sys.Sync()
	n := c.count(2_000_000)
	base := sl.Sys.MetricsSnapshot()
	cycles0 := sl.Sys.Elapsed()
	busy0, _, _ := sl.Sys.Machine().Bus.Stats()
	for i := 0; i < n; i++ {
		sl.Step()
	}
	if err := sl.Err(); err != nil {
		return err
	}
	sl.Sys.Sync()
	snap := sl.Sys.MetricsSnapshot()
	for k, v0 := range base.Counters {
		if k != "hwlogger.fifo_high_water" { // a high-water mark is not a sum
			snap.Counters[k] -= v0
		}
	}
	cycles := float64(sl.Sys.Elapsed() - cycles0)
	busy1, _, _ := sl.Sys.Machine().Bus.Stats()
	res.set("machine.sim_cycles", cycles)
	res.set("machine.sim_cycles_per_store", cycles/float64(n))
	res.set("bus.busy_share", float64(busy1-busy0)/cycles*100)
	setSimCounters(res, snap)
	return nil
}

// setSimCounters reports the simulator layers' counts and ratios from a
// machine's metrics snapshot.
func setSimCounters(res *result, snap *metrics.Snapshot) {
	cn := func(name string) float64 { return float64(snap.Counters[name]) }
	stores := cn("machine.stores")
	res.set("machine.stores", stores)
	res.set("cache.l1_misses", cn("cache.l1_misses"))
	res.set("vm.log_rewinds", cn("vm.log_rewinds"))
	if stores > 0 {
		res.set("vm.logging_faults_per_kstore", cn("vm.logging_faults")/stores*1e3)
		res.set("hwlogger.dma_wait_cycles_per_store", cn("hwlogger.dma_wait_cycles")/stores)
	}
	if gc := cn("hwlogger.group_commits"); gc > 0 {
		res.set("hwlogger.records_per_group_commit", cn("hwlogger.records_dmaed")/gc)
	}
	res.set("hwlogger.fifo_high_water", cn("hwlogger.fifo_high_water"))
	res.set("hwlogger.overloads", cn("hwlogger.overloads"))
	res.set("hwlogger.records_lost", cn("hwlogger.records_lost"))
}

// setOverhead reports what wrapping every operation in a span cost the
// workload's throughput.
func setOverhead(res *result, untraced, traced float64) {
	if untraced > 0 {
		res.set("trace.overhead_pct", (untraced-traced)/untraced*100)
	}
}

// finishTrace writes the span file and reports how many spans it holds.
func finishTrace(c *runCtx, res *result, tracers []*tracer) error {
	spans, dropped, err := writeTrace(c.outDir, res.Workload, c.seed, tracers)
	res.set("trace.spans", float64(spans))
	res.set("trace.spans_dropped", float64(dropped))
	return err
}

// sweepParams are the knobs of `lvmbench all`.
type sweepParams struct{ events, iters, txns, stride int }

var (
	sweepDefault = sweepParams{events: 300, iters: 2000, txns: 400, stride: 3} // cmd/lvmbench's defaults
	sweepSmall   = sweepParams{events: 20, iters: 100, txns: 32, stride: 9}
)

//go:embed golden/sweep.txt
var goldenSweep string

// sweepOut is one pass over every table, figure and ablation.
type sweepOut struct {
	text   string
	errPct float64 // largest relative error against the paper's scalar references
}

// sweepOnce regenerates everything `lvmbench all` does, in its order.
func sweepOnce(p sweepParams) (sweepOut, error) {
	var b strings.Builder
	var out sweepOut
	section := func(name, body string) { fmt.Fprintf(&b, "=== %s ===\n%s\n", name, body) }
	ref := func(got, paper float64) {
		if e := math.Abs(got-paper) / paper * 100; e > out.errPct {
			out.errPct = e
		}
	}

	t2 := experiments.Table2()
	for _, r := range t2 {
		ref(float64(r.TotalCycle), float64(r.PaperTotal))
		ref(float64(r.BusCycles), float64(r.PaperBus))
	}
	section("table2", experiments.FormatTable2(t2))
	t3, err := experiments.Table3(p.txns)
	if err != nil {
		return out, err
	}
	ref(t3.RVMWriteCycles, 3515)
	ref(t3.RLVMWriteCycles, 16)
	ref(t3.RVMTPS, 418)
	ref(t3.RLVMTPS, 552)
	section("table3", experiments.FormatTable3(t3))
	f7, err := experiments.Fig7(p.events)
	if err != nil {
		return out, err
	}
	section("fig7", experiments.FormatFig7(f7))
	f8, err := experiments.Fig8(p.events)
	if err != nil {
		return out, err
	}
	section("fig8", experiments.FormatFig8(f8))
	f9, err := experiments.Fig9()
	if err != nil {
		return out, err
	}
	section("fig9", experiments.FormatFig9(f9))
	f10, err := experiments.Fig10(p.iters)
	if err != nil {
		return out, err
	}
	section("fig10", experiments.FormatFig10(f10))
	// lvmbench computes the Figure 11 sweep once for each of the two
	// figures drawn from it; so does a pass here.
	for _, fig := range []string{"fig11", "fig12"} {
		f11, err := experiments.Fig11(experiments.Fig11ComputeSweep(p.stride), p.iters)
		if err != nil {
			return out, err
		}
		if fig == "fig11" {
			section(fig, experiments.FormatFig11(f11))
		} else {
			section(fig, experiments.FormatFig12(f11))
		}
	}
	grain := []uint64{0, 10, 25, 50, 100, 200, 400, 800}
	section("ablation-logger", experiments.FormatLoggerModels(experiments.LoggerModels(grain, p.iters)))
	fs, err := experiments.FullStackOnChip(grain, p.iters)
	if err != nil {
		return out, err
	}
	section("ablation-onchip", experiments.FormatFullStack(fs))
	cs, err := experiments.Consistency(200)
	if err != nil {
		return out, err
	}
	section("ablation-consistency", experiments.FormatConsistency(cs))
	sr, err := experiments.SetRangeAblation(64)
	if err != nil {
		return out, err
	}
	section("ablation-setrange", experiments.FormatSetRange(sr))
	ck, err := experiments.CheckpointStyles(64, []int{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		return out, err
	}
	section("ablation-checkpoint", experiments.FormatCheckpointStyles(ck))
	ps, err := experiments.ParallelSim(4, 400, true)
	if err != nil {
		return out, err
	}
	section("extension-parallel", experiments.FormatParallelSim(ps))
	od, err := experiments.OODB(nil, p.txns/8)
	if err != nil {
		return out, err
	}
	section("extension-oodb", experiments.FormatOODB(od))
	out.text = b.String()
	return out, nil
}

func runSimSweep(c *runCtx) (*result, error) {
	res := newResult(c, "sim_sweep")
	v := &verdict{}
	res.Info["op"] = "one pass over every table, figure and ablation at lvmbench's default parameters"
	params, want := sweepDefault, goldenSweep
	if c.small {
		// Reduced parameters print different tables; the smoke test
		// checks that passes agree with each other instead.
		params, want = sweepSmall, ""
		res.Info["op"] = "one pass at reduced parameters (golden text not compared)"
	}

	// Set-up is a full untimed pass: it starts the worker pool and lets
	// the runtime size its heap. It is also the pass checked in detail.
	var first sweepOut
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		out, err := sweepOnce(params)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		first = out
	}
	res.setDist("setup_s", distOf(setups, len(setups)))
	if want == "" {
		want = first.text
	}
	match := first.text == want
	v.expect(match, "sweep output differs from bench/golden/sweep.txt")

	before := readHostUsage()
	t, err := c.runTimed(1<<12, func(total time.Duration, tr *tracer) (latencySummary, int, error) {
		rec := newRecorder(1<<12, total/(measuredSlices+1), measuredSlices+1)
		start := time.Now()
		passes := 0
		for {
			t0 := time.Since(start)
			if t0 >= total {
				break
			}
			sp := tr.begin("experiments.sweep_pass", -1, passes)
			out, err := sweepOnce(params)
			tr.end(sp)
			if err != nil {
				return latencySummary{}, passes, err
			}
			t1 := time.Since(start)
			rec.add(int64(t1), int64(t1-t0))
			passes++
			match = match && out.text == want
			v.expect(out.text == want, "pass %d output differs from the expected text", passes)
		}
		return summarize([]*recorder{rec}), passes, nil
	})
	if err != nil {
		return nil, err
	}
	res.setHost(before, readHostUsage(), t.ops)
	res.setDist("op_p50_us", t.plain.p50us)
	res.setDist("workload.op_p99_us", t.plain.p99us)
	res.setDist("ops_per_s", t.plain.perSec)
	v.expect(t.ops > 0, "no sweep pass completed in %v", c.total())

	if c.trace {
		res.set("experiments.paper_tables_match", b2f(match))
		res.set("experiments.paper_err_max_pct", first.errPct)
		if err := traceSim(c, res, t); err != nil {
			return nil, err
		}
	}
	res.finish(v)
	return res, nil
}

// traceSim is a traced simulator run's extra work: the exact counters
// over a fixed number of stores, the per-layer probes, the span file.
func traceSim(c *runCtx, res *result, t timed) error {
	if err := simCounterPass(c, res); err != nil {
		return err
	}
	probes := simProbes(c, c.probeBudget())
	setSimProbes(res, probes, t.tr)
	setOverhead(res, t.plain.perSec.Median, t.traced.perSec.Median)
	return finishTrace(c, res, []*tracer{t.tr, probes.tr})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
