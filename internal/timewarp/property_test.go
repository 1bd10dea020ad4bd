package timewarp

import (
	"errors"
	"testing"
	"testing/quick"
)

// TestPropertyPolicyInvariance: for random small workloads, every
// stepping policy and both state savers produce the same final object
// state as the sequential (global-order, single-scheduler) execution —
// TimeWarp's fundamental correctness property, exercised with real
// rollbacks, anti-messages and CULT.
func TestPropertyPolicyInvariance(t *testing.T) {
	type seedCfg struct {
		Seed    uint32
		Horizon uint8
		Writes  uint8
		Objects uint8
	}
	prop := func(sc seedCfg) bool {
		horizon := VT(sc.Horizon%60) + 20
		writes := int(sc.Writes%5) + 1
		// Keep totals divisible by both 1 and 3 schedulers.
		totalObjects := (int(sc.Objects%3) + 1) * 3

		build := func(scheds int, saver SaverKind) *Sim {
			cfg := Config{
				Schedulers:          scheds,
				ObjectsPerScheduler: totalObjects / scheds,
				ObjectBytes:         64,
				Saver:               saver,
				GVTInterval:         8,
				MemFrames:           16 << 8,
			}
			h := Synthetic{
				Compute:     200,
				Writes:      writes,
				ObjectWords: 16,
				Horizon:     horizon,
				MaxDelay:    5,
				NumObjects:  uint32(totalObjects),
			}
			sim, err := New(cfg, h)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < sim.NumObjects(); i++ {
				sim.Inject(0, i, sc.Seed+i*13)
			}
			return sim
		}
		snapshotOf := func(s *Sim) []uint32 {
			out := make([]uint32, 0, totalObjects*16)
			for obj := uint32(0); obj < s.NumObjects(); obj++ {
				for w := 0; w < 16; w++ {
					out = append(out, s.ObjectWord(obj, w))
				}
			}
			return out
		}

		ref := build(1, SaverLVM)
		ref.Run(PolicyGlobalOrder)
		want := snapshotOf(ref)

		for _, saver := range []SaverKind{SaverLVM, SaverCopy} {
			for _, pol := range []Policy{PolicyRoundRobin, PolicyLeastCycles} {
				s := build(3, saver)
				s.Run(pol)
				got := snapshotOf(s)
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestGVTMonotone(t *testing.T) {
	sim := buildSim(t, 3, SaverLVM, 150)
	var last VT
	for {
		if sim.RunSteps(PolicyRoundRobin, 16) == 0 {
			break
		}
		if sim.gvt < last {
			t.Fatalf("GVT went backwards: %d -> %d", last, sim.gvt)
		}
		last = sim.gvt
	}
}

func TestRunStepsPartialThenComplete(t *testing.T) {
	a := buildSim(t, 1, SaverLVM, 80)
	for a.RunSteps(PolicyGlobalOrder, 7) == 7 {
	}
	b := buildSim(t, 1, SaverLVM, 80)
	b.Run(PolicyGlobalOrder)
	if !equalStates(snapshot(a), snapshot(b)) {
		t.Fatalf("piecewise run differs from complete run")
	}
}

func TestChargeCULTOption(t *testing.T) {
	run := func(charge bool) uint64 {
		cfg := Config{
			Schedulers:          1,
			ObjectsPerScheduler: 2,
			ObjectBytes:         64,
			Saver:               SaverLVM,
			GVTInterval:         8,
			ChargeCULT:          charge,
			MemFrames:           8 << 8,
		}
		h := synthetic(100, 2)
		sim, err := New(cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		sim.Inject(0, 0, 1)
		sim.Inject(0, 1, 2)
		sim.Run(PolicyGlobalOrder)
		if sim.TotalStats().CULTRecords == 0 {
			t.Fatalf("no CULT records")
		}
		return sim.sys.Elapsed()
	}
	free := run(false)
	charged := run(true)
	if charged <= free {
		t.Fatalf("ChargeCULT did not add cycles: %d vs %d", charged, free)
	}
}

func TestFourSchedulersFourCPUs(t *testing.T) {
	sim := buildSimN(t, 4, SaverLVM, 120, 8)
	sim.Run(PolicyLeastCycles)
	if len(sim.sys.Machine().CPUs) != 4 {
		t.Fatalf("machine CPUs = %d", len(sim.sys.Machine().CPUs))
	}
	ref := buildSimN(t, 1, SaverLVM, 120, 8)
	ref.Run(PolicyGlobalOrder)
	if !equalStates(snapshot(sim), snapshot(ref)) {
		t.Fatalf("4-scheduler run diverged")
	}
}

func TestSpeedupGrowsWithObjectSizeFig7(t *testing.T) {
	// The Figure 7 claim across the four curves at fixed c.
	var prev float64
	for _, cu := range []struct {
		w int
		s uint32
	}{{1, 32}, {2, 64}, {4, 128}, {8, 256}} {
		sp, _, _, err := Speedup(512, cu.s, cu.w, 150)
		if err != nil {
			t.Fatal(err)
		}
		if sp < prev {
			t.Fatalf("speedup not increasing with (w,s): %v at s=%d after %v", sp, cu.s, prev)
		}
		prev = sp
	}
}

func TestLVMSaverLogsExactlyPerEvent(t *testing.T) {
	// Each event logs 1 marker + w writes.
	cfg := Config{
		Schedulers:          1,
		ObjectsPerScheduler: 1,
		ObjectBytes:         64,
		Saver:               SaverLVM,
		GVTInterval:         1 << 30,
		MemFrames:           8 << 8,
	}
	h := Synthetic{Compute: 50, Writes: 3, ObjectWords: 16, Horizon: 1, NumObjects: 1}
	sim, err := New(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	sim.Inject(0, 0, 5)
	sim.Run(PolicyGlobalOrder)
	sc := sim.scheds[0]
	// Final quiescent CULT truncates; recordsIssued returns to zero but
	// CULTRecords counts what was applied.
	if got := sc.Stats.CULTRecords; got != 4 {
		t.Fatalf("records = %d, want 1 marker + 3 writes", got)
	}
}

func TestCULTProcessorOffloads(t *testing.T) {
	run := func(dedicated bool) (schedCycles, cultCycles uint64, checksum uint32) {
		cfg := Config{
			Schedulers:          2,
			ObjectsPerScheduler: 3,
			ObjectBytes:         64,
			Saver:               SaverLVM,
			GVTInterval:         8,
			ChargeCULT:          !dedicated,
			CULTProcessor:       dedicated,
			MemFrames:           16 << 8,
		}
		h := synthetic(120, 6)
		sim, err := New(cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < 6; i++ {
			sim.Inject(0, i, 500+i)
		}
		sim.Run(PolicyGlobalOrder)
		if sim.TotalStats().CULTRecords == 0 {
			t.Fatalf("no CULT work")
		}
		for _, sc := range sim.scheds {
			schedCycles += sc.p.Now()
		}
		if sim.cultCPU != nil {
			cultCycles = sim.cultCPU.Now
		}
		var sum uint32
		for obj := uint32(0); obj < 6; obj++ {
			sum = sum*31 + sim.ObjectWord(obj, 0)
		}
		return schedCycles, cultCycles, sum
	}
	inlineSched, _, c1 := run(false)
	offloadSched, cultWork, c2 := run(true)
	if c1 != c2 {
		t.Fatalf("CULT placement changed results: %08x vs %08x", c1, c2)
	}
	if cultWork == 0 {
		t.Fatalf("dedicated CULT processor did no work")
	}
	if offloadSched >= inlineSched {
		t.Fatalf("offloading CULT did not relieve schedulers: %d vs %d", offloadSched, inlineSched)
	}
}

func buildLazy(t *testing.T, lazy bool, horizon VT) *Sim {
	t.Helper()
	cfg := Config{
		Schedulers:          3,
		ObjectsPerScheduler: 3,
		ObjectBytes:         64,
		Saver:               SaverLVM,
		GVTInterval:         16,
		LazyCancellation:    lazy,
		MemFrames:           16 << 8,
	}
	h := synthetic(horizon, 9)
	sim, err := New(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 9; i++ {
		sim.Inject(0, i, 1000+i*7)
	}
	return sim
}

func TestLazyCancellationMatchesAggressive(t *testing.T) {
	ref := buildSim(t, 1, SaverLVM, 120)
	ref.Run(PolicyGlobalOrder)
	want := snapshot(ref)

	lazy := buildLazy(t, true, 120)
	lazy.Run(PolicyRoundRobin)
	if !equalStates(snapshot(lazy), want) {
		t.Fatalf("lazy cancellation diverged from sequential")
	}
	aggr := buildLazy(t, false, 120)
	aggr.Run(PolicyRoundRobin)
	if !equalStates(snapshot(aggr), want) {
		t.Fatalf("aggressive run diverged (baseline broken)")
	}
}

func TestLazyCancellationSavesAntiMessages(t *testing.T) {
	lazy := buildLazy(t, true, 160)
	lazy.Run(PolicyRoundRobin)
	aggr := buildLazy(t, false, 160)
	aggr.Run(PolicyRoundRobin)
	ls, as := lazy.TotalStats(), aggr.TotalStats()
	if as.Rollbacks == 0 {
		t.Skip("no rollbacks in this configuration")
	}
	if ls.LazyKept == 0 {
		t.Fatalf("lazy cancellation never kept a send (rollbacks=%d)", ls.Rollbacks)
	}
	t.Logf("antis: lazy=%d aggressive=%d, kept=%d", ls.AntisSent, as.AntisSent, ls.LazyKept)
}

func TestLazyStaleSendsCancelledOnAnnihilation(t *testing.T) {
	// Deterministic micro-scenario would be intricate; instead verify the
	// global invariant over a rollback-heavy run: after completion, no
	// scheduler retains stashed lazy sends (all were re-executed or
	// flushed as antis), and the event population fully drained.
	sim := buildLazy(t, true, 200)
	sim.Run(PolicyRoundRobin)
	for _, sc := range sim.scheds {
		if len(sc.lazyPrev) != 0 {
			t.Fatalf("scheduler %d retains %d stale lazy entries", sc.id, len(sc.lazyPrev))
		}
		if sc.q.len() != 0 {
			t.Fatalf("scheduler %d queue not drained", sc.id)
		}
	}
}

// TestQuiescenceTruncateFailureSurfaces pins the swallowed-error fix in
// cult(): when the kernel refuses the quiescence-time log truncation,
// the failure must be tallied and the checkpoint positions must keep
// describing the (untruncated) log, so the next quiescence can retry —
// not silently reset as if the cut had happened.
func TestQuiescenceTruncateFailureSurfaces(t *testing.T) {
	sim := buildSim(t, 1, SaverLVM, 80)
	sc := sim.scheds[0]
	sc.cm.FailHook = func() error { return errors.New("injected truncation failure") }
	sim.Run(PolicyGlobalOrder)

	if sc.Stats.TruncFailures == 0 {
		t.Fatal("failed quiescence truncation left no trace")
	}
	if sc.ckptPos == 0 || sc.recordsIssued == 0 {
		t.Fatal("checkpoint positions were reset despite the failed truncation")
	}
	if got := sim.sys.K.LogAppendOffset(sc.logSeg); got != sc.ckptPos {
		t.Fatalf("log append offset %d, ckptPos %d: positions no longer describe the log", got, sc.ckptPos)
	}

	// With the injection cleared the next quiescence pass truncates.
	sc.cm.FailHook = nil
	sc.cult(^VT(0))
	if sc.ckptPos != 0 || sc.recordsIssued != 0 {
		t.Fatalf("retry did not reset positions: ckptPos %d recordsIssued %d", sc.ckptPos, sc.recordsIssued)
	}
	if got := sim.sys.K.LogAppendOffset(sc.logSeg); got != 0 {
		t.Fatalf("retry left %d bytes in the log", got)
	}
}
