// Package metrics is the simulator's zero-allocation observability layer:
// a shard-per-CPU counter/histogram registry plus a fixed-capacity
// ring-buffer event tracer (package metrics' Tracer).
//
// The paper's entire evaluation is counting — logging faults, FIFO
// overload interrupts, log bytes written, deferred-copy resets, cache
// misses (Tables 1–3, Figures 7–13) — so the hot layers (hwlogger, tlblog,
// cache, vm, machine) publish those events here, and experiments read them
// back with Snapshot instead of reaching into component internals.
//
// Design constraints, in order:
//
//  1. The logged-store hot path must stay allocation-free and within a few
//     percent of its uninstrumented speed. Counters are therefore keyed by
//     small integer IDs into preallocated per-shard arrays — an increment
//     is one indexed add, no map lookups, no interface calls, no atomics.
//  2. The simulated machine is deterministic and single-threaded per
//     instance; host-side concurrency comes from the sweep engine
//     (internal/sim) running many instances at once. Each component
//     therefore increments its own *Shard — one per simulated CPU plus one
//     for bus devices — and shards are only ever written by their owning
//     goroutine. Snapshot aggregates across shards and is safe once the
//     writers have quiesced (e.g. after sim.Map returns, which
//     happens-before the caller resumes).
//  3. Everything cold (names, aggregation kinds, JSON) lives on the
//     Snapshot side, never on the increment side.
package metrics

import "math/bits"

// ID is an integer counter key. The catalogue below is the union of the
// hardware-event counters the paper's tables and figures are built from;
// README.md's "Observability" section maps each name to its table/figure.
type ID uint16

const (
	// Prototype bus logger (Section 3.1; Figures 10–12, Table 3).
	HWFIFOHighWater        ID = iota // max combined FIFO occupancy seen
	HWSnoops                         // logged writes snooped off the bus
	HWRecordsDMAed                   // 16-byte records DMAed into log segments
	HWDMAWaitCycles                  // cycles DMA requests waited for the bus
	HWOverloads                      // FIFO overload interrupts (Section 3.1.3)
	HWOverloadDrainCycles            // cycles CPUs were suspended per overload drains
	HWLoggingFaultsPMT               // logging faults: missing/displaced PMT entry
	HWLoggingFaultsLogAddr           // logging faults: invalid log address (page crossing)
	HWRecordsLost                    // records dropped (handler declined or absorb)
	HWRecordsAbsorbed                // writes coalesced into a pending FIFO entry
	HWGroupCommits                   // batched DMA drains (group commits) issued

	// On-chip logger (Section 4.6; Figure 13).
	ChipDescHits     // log-descriptor lookups that hit a valid descriptor
	ChipDescMisses   // lookups that missed (no TLB tag or invalid descriptor)
	ChipRecordsDMAed // records written by the on-chip unit
	ChipStallEvents  // write-buffer-full processor stalls
	ChipStallCycles  // cycles the processor stalled on the write buffer
	ChipRecordsLost  // records dropped by the on-chip unit

	// Virtual-memory kernel (Sections 2–3; Figures 7–9, Table 3).
	VMPageFaults         // page faults taken (Section 3.2 fault path)
	VMLoggingFaults      // logging faults handled by the kernel
	VMLogHeadAdvances    // log head moved to a fresh log-segment page
	VMAbsorbedPages      // head pointed at the absorb page (records lost)
	VMLogRewinds         // RewindLog/TruncateLog calls (Sections 2.4, 4.2)
	VMDeferredResets     // resetDeferredCopy calls (Figure 9)
	VMDeferredDirtyPages // dirty pages encountered by resets
	VMDeferredLinesReset // cache lines re-pointed at the source by resets

	// Fault injection and crash recovery (internal/fault,
	// internal/recovery): the robustness harness counts what it breaks and
	// what the recovery manager repairs through the same registry the
	// hardware counters use, so crashtest reports come out of one snapshot.
	FaultsInjected         // faults the injector armed and fired
	FaultRecordsDropped    // log records dropped in the DMA path by injection
	RecordsCorrupted       // log records bit-corrupted in the DMA path
	FaultDiskErrors        // transient ramdisk op failures injected
	FaultCrashes           // simulated machine crashes
	RecoveryReplays        // log-replay recovery passes
	RecoveryRecordsApplied // records applied to a segment during replay
	RecoveryRetries        // bounded-backoff retries of transient device errors
	RecoveryInvalidRecords // records rejected by replay validation
	QuarantinedBytes       // log bytes quarantined as a damaged tail

	// Checkpointed log compaction (internal/compact; Sections 2.4, 4.2):
	// the log-prefix lifecycle — image snapshots behind a marker-word
	// commit, safe-point truncations, and the replay bytes those
	// checkpoints let recovery skip.
	CompactCheckpoints      // durable checkpoint images committed
	CompactSnapshotBytes    // image bytes written to the checkpoint device
	CompactTruncations      // log-prefix truncations (incl. full truncates)
	CompactBytesTruncated   // log bytes discarded by truncation
	CompactTruncateFailures // truncations that failed and were surfaced
	RecoverySkippedBytes    // log bytes checkpoint-aware replay skipped

	// Multi-tenant logged-memory serving (internal/lvmd): per-shard
	// counters the daemon merges across shard systems into one snapshot.
	LvmdOpens        // segment-open transactions applied
	LvmdCommits      // client commit transactions applied
	LvmdStores       // data-word stores applied inside commits
	LvmdBatches      // group-commit batches (one durability fence each)
	LvmdReads        // consistent read operations served
	LvmdTailBytes    // log bytes mirrored to the durable tail file
	LvmdRecoveries   // shard recoveries (restart = one RecoverImage per shard)
	LvmdRestartSyncs // fsyncs a restart issued before serving (checkpoint device + tail)

	// NumIDs is the counter-array length; keep it last.
	NumIDs
)

// Kind says how a counter aggregates across shards.
type Kind uint8

const (
	// KindSum counters add across shards (events, cycles).
	KindSum Kind = iota
	// KindMax counters take the maximum across shards (high-water marks).
	KindMax
)

// counterMeta names each ID and fixes its aggregation kind.
var counterMeta = [NumIDs]struct {
	name string
	kind Kind
}{
	HWFIFOHighWater:        {"hwlogger.fifo_high_water", KindMax},
	HWSnoops:               {"hwlogger.snoops", KindSum},
	HWRecordsDMAed:         {"hwlogger.records_dmaed", KindSum},
	HWDMAWaitCycles:        {"hwlogger.dma_wait_cycles", KindSum},
	HWOverloads:            {"hwlogger.overloads", KindSum},
	HWOverloadDrainCycles:  {"hwlogger.overload_drain_cycles", KindSum},
	HWLoggingFaultsPMT:     {"hwlogger.logging_faults_pmt", KindSum},
	HWLoggingFaultsLogAddr: {"hwlogger.logging_faults_log_addr", KindSum},
	HWRecordsLost:          {"hwlogger.records_lost", KindSum},
	HWRecordsAbsorbed:      {"hwlogger.records_absorbed", KindSum},
	HWGroupCommits:         {"hwlogger.group_commits", KindSum},
	ChipDescHits:           {"tlblog.descriptor_hits", KindSum},
	ChipDescMisses:         {"tlblog.descriptor_misses", KindSum},
	ChipRecordsDMAed:       {"tlblog.records_dmaed", KindSum},
	ChipStallEvents:        {"tlblog.stall_events", KindSum},
	ChipStallCycles:        {"tlblog.stall_cycles", KindSum},
	ChipRecordsLost:        {"tlblog.records_lost", KindSum},
	VMPageFaults:           {"vm.page_faults", KindSum},
	VMLoggingFaults:        {"vm.logging_faults", KindSum},
	VMLogHeadAdvances:      {"vm.log_head_advances", KindSum},
	VMAbsorbedPages:        {"vm.absorbed_pages", KindSum},
	VMLogRewinds:           {"vm.log_rewinds", KindSum},
	VMDeferredResets:       {"vm.deferred_resets", KindSum},
	VMDeferredDirtyPages:   {"vm.deferred_dirty_pages", KindSum},
	VMDeferredLinesReset:   {"vm.deferred_lines_reset", KindSum},
	FaultsInjected:         {"fault.injected", KindSum},
	FaultRecordsDropped:    {"fault.records_dropped", KindSum},
	RecordsCorrupted:       {"fault.records_corrupted", KindSum},
	FaultDiskErrors:        {"fault.disk_errors", KindSum},
	FaultCrashes:           {"fault.crashes", KindSum},
	RecoveryReplays:        {"recovery.replays", KindSum},
	RecoveryRecordsApplied: {"recovery.records_applied", KindSum},
	RecoveryRetries:        {"recovery.retries", KindSum},
	RecoveryInvalidRecords: {"recovery.invalid_records", KindSum},
	QuarantinedBytes:       {"recovery.quarantined_bytes", KindSum},

	CompactCheckpoints:      {"compact.checkpoints", KindSum},
	CompactSnapshotBytes:    {"compact.snapshot_bytes", KindSum},
	CompactTruncations:      {"compact.truncations", KindSum},
	CompactBytesTruncated:   {"compact.bytes_truncated", KindSum},
	CompactTruncateFailures: {"compact.truncate_failures", KindSum},
	RecoverySkippedBytes:    {"recovery.replay_skipped_bytes", KindSum},

	LvmdOpens:        {"lvmd.opens", KindSum},
	LvmdCommits:      {"lvmd.commits", KindSum},
	LvmdStores:       {"lvmd.stores", KindSum},
	LvmdBatches:      {"lvmd.batches", KindSum},
	LvmdReads:        {"lvmd.reads", KindSum},
	LvmdTailBytes:    {"lvmd.tail_bytes", KindSum},
	LvmdRecoveries:   {"lvmd.recoveries", KindSum},
	LvmdRestartSyncs: {"lvmd.restart_syncs", KindSum},
}

// HistID keys the fixed set of power-of-two histograms.
type HistID uint16

const (
	// HistFIFODepth observes the bus logger's combined FIFO occupancy at
	// each snooped write — the distribution behind Figure 12's overload
	// counts.
	HistFIFODepth HistID = iota
	// HistStallCycles observes per-event CPU stall lengths (overload
	// suspensions, on-chip write-buffer stalls).
	HistStallCycles
	// HistBatchSize observes the number of records per group-commit DMA
	// drain (1 when group commit is disabled and every record DMAs alone).
	HistBatchSize
	// HistCommitLatency observes, per group commit, the cycles between the
	// oldest batched record's snoop and the batch's DMA completion — the
	// durability latency the group-commit deadline bounds.
	HistCommitLatency
	// HistLvmdCommitAck observes, per client commit served by the lvmd
	// daemon, the host nanoseconds from shard-queue entry to durable
	// acknowledgement (sync + tail fsync). Host-side only: the simulated
	// workloads never observe it, so determinism is untouched.
	HistLvmdCommitAck

	// NumHistIDs is the histogram-array length; keep it last.
	NumHistIDs
)

var histName = [NumHistIDs]string{
	HistFIFODepth:     "hwlogger.fifo_depth",
	HistStallCycles:   "machine.stall_event_cycles",
	HistBatchSize:     "hwlogger.batch_size",
	HistCommitLatency: "hwlogger.commit_latency_cycles",
	HistLvmdCommitAck: "lvmd.commit_ack_ns",
}

// histBuckets is one bucket per possible bits.Len64 result: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v == 0 for bucket 0
// and 2^(i-1) <= v < 2^i otherwise.
const histBuckets = 65

// Shard is one owner's counter block. Exactly one goroutine may write a
// shard at a time (the simulator is single-threaded per machine instance;
// sweep workers each own distinct machines and hence distinct shards).
// All mutating methods are single indexed adds so they inline into the
// hot path and never allocate.
type Shard struct {
	c [NumIDs]uint64
	h [NumHistIDs][histBuckets]uint64

	// Pad the struct to a multiple of the cache-line size so adjacent
	// shards in a registry's backing array never share a line (false
	// sharing would serialize the sweep workers on the host).
	_ [cacheLine - (int(NumIDs)*8+int(NumHistIDs)*histBuckets*8)%cacheLine]byte
}

const cacheLine = 64

// Inc adds 1 to a counter.
func (s *Shard) Inc(id ID) { s.c[id]++ }

// Add adds v to a counter.
func (s *Shard) Add(id ID, v uint64) { s.c[id] += v }

// SetMax raises a KindMax counter to v if v exceeds its current value.
func (s *Shard) SetMax(id ID, v uint64) {
	if v > s.c[id] {
		s.c[id] = v
	}
}

// Observe records v into a power-of-two histogram.
func (s *Shard) Observe(id HistID, v uint64) { s.h[id][bits.Len64(v)]++ }

// Registry owns the shards for one simulated machine (one per CPU plus
// one for bus devices), the trace ring, and the cold-path collectors.
type Registry struct {
	shards []Shard
	tracer *Tracer

	// collectors run at Snapshot time and contribute named values that
	// components already count in their own structs (legacy stats fields
	// like cache hit counts); keeping them collected rather than
	// double-incremented costs the hot path nothing.
	collectors []Collector
}

// Collector contributes named counter values to a snapshot.
type Collector func(emit func(name string, v uint64))

// New creates a registry with nshards shards and a disabled tracer of the
// default capacity.
func New(nshards int) *Registry {
	if nshards < 1 {
		nshards = 1
	}
	return &Registry{
		shards: make([]Shard, nshards),
		tracer: NewTracer(DefaultTraceCapacity),
	}
}

// Shard returns shard i. The caller must ensure single-writer discipline
// per shard.
func (r *Registry) Shard(i int) *Shard { return &r.shards[i] }

// Tracer returns the registry's event tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// AddCollector registers a snapshot-time collector.
func (r *Registry) AddCollector(c Collector) {
	r.collectors = append(r.collectors, c)
}

// HistBucket is one histogram bucket: Count observations with value <= Le
// (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Hist is an aggregated histogram.
type Hist struct {
	Count   uint64       `json:"count"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time aggregation of every shard plus the
// collector-provided values. It is built entirely on the cold path.
type Snapshot struct {
	Counters   map[string]uint64 `json:"counters"`
	Histograms map[string]Hist   `json:"histograms,omitempty"`
	// TraceDropped counts events the trace ring overwrote before they
	// were read.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// Snapshot aggregates all shards (KindSum counters add, KindMax counters
// take the max), merges histogram buckets, and runs the collectors. Call
// it only when shard writers are quiescent (between simulation steps, or
// after the sweep pool has joined).
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{
		Counters:   make(map[string]uint64, int(NumIDs)+8*len(r.collectors)),
		Histograms: make(map[string]Hist, int(NumHistIDs)),
	}
	for id := ID(0); id < NumIDs; id++ {
		var v uint64
		for i := range r.shards {
			sv := r.shards[i].c[id]
			switch counterMeta[id].kind {
			case KindMax:
				if sv > v {
					v = sv
				}
			default:
				v += sv
			}
		}
		snap.Counters[counterMeta[id].name] = v
	}
	for hid := HistID(0); hid < NumHistIDs; hid++ {
		var merged [histBuckets]uint64
		var total uint64
		for i := range r.shards {
			for b, c := range r.shards[i].h[hid] {
				merged[b] += c
				total += c
			}
		}
		if total == 0 {
			continue
		}
		h := Hist{Count: total}
		for b, c := range merged {
			if c == 0 {
				continue
			}
			le := uint64(0)
			if b > 0 {
				le = 1<<uint(b) - 1
			}
			h.Buckets = append(h.Buckets, HistBucket{Le: le, Count: c})
		}
		snap.Histograms[histName[hid]] = h
	}
	for _, c := range r.collectors {
		c(func(name string, v uint64) { snap.Counters[name] = v })
	}
	if r.tracer != nil {
		snap.TraceDropped = r.tracer.Dropped()
	}
	return snap
}
