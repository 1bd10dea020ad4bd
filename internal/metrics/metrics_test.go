package metrics_test

import (
	"encoding/json"
	"testing"

	"lvm/internal/metrics"
	"lvm/internal/sim"
)

// TestShardOps checks the three mutation kinds and Get.
func TestShardOps(t *testing.T) {
	r := metrics.New(1)
	sh := r.Shard(0)
	sh.Inc(metrics.HWSnoops)
	sh.Inc(metrics.HWSnoops)
	sh.Add(metrics.HWDMAWaitCycles, 40)
	sh.SetMax(metrics.HWFIFOHighWater, 7)
	sh.SetMax(metrics.HWFIFOHighWater, 3) // lower: must not regress
	if got := sh.Get(metrics.HWSnoops); got != 2 {
		t.Fatalf("snoops = %d, want 2", got)
	}
	if got := sh.Get(metrics.HWDMAWaitCycles); got != 40 {
		t.Fatalf("dma wait = %d, want 40", got)
	}
	if got := sh.Get(metrics.HWFIFOHighWater); got != 7 {
		t.Fatalf("high water = %d, want 7", got)
	}
}

// TestSnapshotAggregation pins the cross-shard rules: KindSum counters
// add, KindMax counters take the maximum, histograms merge bucket-wise,
// and collectors contribute named values.
func TestSnapshotAggregation(t *testing.T) {
	r := metrics.New(3)
	for i := 0; i < 3; i++ {
		sh := r.Shard(i)
		sh.Add(metrics.HWSnoops, uint64(10*(i+1)))
		sh.SetMax(metrics.HWFIFOHighWater, uint64(100+i))
		sh.Observe(metrics.HistFIFODepth, uint64(i)) // 0, 1, 2
	}
	r.AddCollector(func(emit func(string, uint64)) {
		emit("test.collected", 99)
	})
	snap := r.Snapshot()
	if got := snap.Counters[metrics.HWSnoops.Name()]; got != 60 {
		t.Fatalf("sum counter = %d, want 60", got)
	}
	if got := snap.Counters[metrics.HWFIFOHighWater.Name()]; got != 102 {
		t.Fatalf("max counter = %d, want 102", got)
	}
	if got := snap.Counters["test.collected"]; got != 99 {
		t.Fatalf("collected = %d, want 99", got)
	}
	h := snap.Histograms[metrics.HistFIFODepth.Name()]
	if h.Count != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count)
	}
	// v=0 -> bucket le=0; v=1 -> le=1; v=2 -> le=3.
	want := []metrics.HistBucket{{Le: 0, Count: 1}, {Le: 1, Count: 1}, {Le: 3, Count: 1}}
	if len(h.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", h.Buckets, want)
	}
	for i, b := range want {
		if h.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, h.Buckets[i], b)
		}
	}
	// A snapshot must marshal cleanly (lvmd's drain manifest embeds it).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestConcurrentShards drives one shard per sweep-pool worker, exactly the
// single-writer-per-shard discipline the simulator uses, and must pass
// under -race: sim.Do's join is the happens-before edge that makes the
// final Snapshot safe.
func TestConcurrentShards(t *testing.T) {
	const shards = 8
	const perShard = 100000
	r := metrics.New(shards)
	old := sim.Workers()
	sim.SetWorkers(shards)
	defer sim.SetWorkers(old)
	err := sim.Do(shards, func(i int) error {
		sh := r.Shard(i)
		for j := 0; j < perShard; j++ {
			sh.Inc(metrics.VMPageFaults)
			sh.Add(metrics.ChipStallCycles, 2)
			sh.SetMax(metrics.HWFIFOHighWater, uint64(j))
			sh.Observe(metrics.HistStallCycles, uint64(j))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if got := snap.Counters[metrics.VMPageFaults.Name()]; got != shards*perShard {
		t.Fatalf("page faults = %d, want %d", got, shards*perShard)
	}
	if got := snap.Counters[metrics.ChipStallCycles.Name()]; got != 2*shards*perShard {
		t.Fatalf("stall cycles = %d, want %d", got, 2*shards*perShard)
	}
	if got := snap.Counters[metrics.HWFIFOHighWater.Name()]; got != perShard-1 {
		t.Fatalf("high water = %d, want %d", got, perShard-1)
	}
	if got := snap.Histograms[metrics.HistStallCycles.Name()].Count; got != shards*perShard {
		t.Fatalf("hist count = %d, want %d", got, shards*perShard)
	}
}

// TestHotPathAllocationFree is the package-local half of the repo's
// TestLoggedStoreZeroAlloc gate: every operation the instrumented store
// path performs — counter increments, histogram observations, and trace
// emissions both disabled and enabled — allocates nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := metrics.New(2)
	sh := r.Shard(0)
	tr := r.Tracer()
	var i uint64
	if avg := testing.AllocsPerRun(10000, func() {
		i++
		sh.Inc(metrics.HWSnoops)
		sh.Add(metrics.HWDMAWaitCycles, i)
		sh.SetMax(metrics.HWFIFOHighWater, i%700)
		sh.Observe(metrics.HistFIFODepth, i%700)
		tr.Emit(i, metrics.EvOverload, 0, i, i) // disabled: must be free
	}); avg != 0 {
		t.Fatalf("disabled-trace instrumented path allocates %v/op", avg)
	}
	tr.Enable()
	if avg := testing.AllocsPerRun(10000, func() {
		i++
		tr.Emit(i, metrics.EvPageFault, 1, i, i) // ring wraps: still free
	}); avg != 0 {
		t.Fatalf("enabled tracer allocates %v/op", avg)
	}
}

// TestTracerRing pins ring semantics: capacity bound, oldest-first order,
// drop accounting, reset, nil safety, and the runtime gate.
func TestTracerRing(t *testing.T) {
	tr := metrics.NewTracer(4)
	tr.Emit(1, metrics.EvPageFault, 0, 0, 0)
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded an event")
	}
	tr.Enable()
	for i := uint64(1); i <= 6; i++ {
		tr.Emit(i, metrics.EvLogRewind, 2, i*10, i*100)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		wantTime := uint64(i + 3) // events 3..6 survive
		if e.Time != wantTime || e.Kind != metrics.EvLogRewind || e.CPU != 2 ||
			e.A != wantTime*10 || e.B != wantTime*100 {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.KindName() != "log_rewind" {
			t.Fatalf("kind name = %q", e.KindName())
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("reset left len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Disable()
	tr.Emit(9, metrics.EvChipStall, 0, 0, 0)
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded after Disable")
	}

	// Nil and zero-capacity tracers absorb everything quietly.
	var nilT *metrics.Tracer
	nilT.Enable()
	nilT.Emit(0, metrics.EvOverload, 0, 0, 0)
	if nilT.Len() != 0 || nilT.Dropped() != 0 || nilT.Events() != nil || nilT.Enabled() {
		t.Fatalf("nil tracer misbehaved")
	}
	nilT.Disable()
	nilT.Reset()
	z := metrics.NewTracer(0)
	z.Enable()
	z.Emit(1, metrics.EvOverload, 0, 0, 0)
	if z.Len() != 0 || z.Dropped() != 1 {
		t.Fatalf("zero-capacity tracer: len=%d dropped=%d", z.Len(), z.Dropped())
	}
}

// TestNames ensures every counter, histogram and event kind has a
// distinct, non-empty name (the snapshot is keyed by them).
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for id := metrics.ID(0); id < metrics.NumIDs; id++ {
		n := id.Name()
		if n == "" || seen[n] {
			t.Fatalf("counter %d: bad or duplicate name %q", id, n)
		}
		seen[n] = true
	}
	for id := metrics.HistID(0); id < metrics.NumHistIDs; id++ {
		n := id.Name()
		if n == "" || seen[n] {
			t.Fatalf("hist %d: bad or duplicate name %q", id, n)
		}
		seen[n] = true
	}
	kinds := []metrics.EventKind{
		metrics.EvPageFault, metrics.EvLoggingFault, metrics.EvOverload,
		metrics.EvLogAdvance, metrics.EvLogAbsorb, metrics.EvLogRewind,
		metrics.EvChipStall,
	}
	ks := map[string]bool{}
	for _, k := range kinds {
		n := k.String()
		if n == "" || n == "unknown" || ks[n] {
			t.Fatalf("event kind %d: bad or duplicate name %q", k, n)
		}
		ks[n] = true
	}
	if metrics.EventKind(250).String() != "unknown" {
		t.Fatalf("out-of-range kind should be unknown")
	}
}

// TestRegistryDefaults covers the clamped constructors.
func TestRegistryDefaults(t *testing.T) {
	if metrics.New(0).NumShards() != 1 {
		t.Fatalf("New(0) should clamp to one shard")
	}
	if metrics.NewTracer(-1).Len() != 0 {
		t.Fatalf("NewTracer(-1) should clamp to empty")
	}
}
