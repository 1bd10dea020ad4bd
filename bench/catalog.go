package main

import "encoding/json"

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-describe) and the smoke test checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd is what a user of the system sees, on every workload. The
// operation behind op_* is the workload's own (README.md lists them):
// a block of 1000 logged stores, a sweep pass, a commit, a restart.
var endToEnd = []metricDef{
	{"op_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by a traced run. A metric a workload does not
// exercise reads 0 there. README.md says which end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	// Simulated machine, over a fixed number of stores: exact.
	{"machine.sim_cycles", "cycles", "lower", 0},
	{"machine.sim_cycles_per_store", "cycles", "lower", 0},
	{"machine.stores", "count", "higher", 0},
	{"cache.l1_misses", "count", "lower", 0},
	{"bus.busy_share", "%", "lower", 0},
	{"vm.logging_faults_per_kstore", "count", "lower", 0},
	{"vm.log_rewinds", "count", "lower", 0},
	{"hwlogger.records_per_group_commit", "count", "higher", 0},
	{"hwlogger.dma_wait_cycles_per_store", "cycles", "lower", 0},
	{"hwlogger.fifo_high_water", "count", "lower", 0},
	{"hwlogger.overloads", "count", "lower", 0},
	{"hwlogger.records_lost", "count", "lower", 0},
	{"tlblog.stall_events", "count", "lower", 0},
	{"experiments.paper_tables_match", "count", "higher", 0},
	{"experiments.paper_err_max_pct", "%", "lower", 0},
	// Simulator host time, one exported call at a time.
	{"machine.store_ns", "ns", "lower", 0},
	{"machine.word_write_ns", "ns", "lower", 0},
	{"machine.word_read_ns", "ns", "lower", 0},
	{"bus.acquire_ns", "ns", "lower", 0},
	{"hwlogger.snoop_ns", "ns", "lower", 0},
	{"hwlogger.drain_ns_per_record", "ns", "lower", 0},
	{"tlblog.snoop_ns", "ns", "lower", 0},
	{"core.sync_ns", "ns", "lower", 0},
	{"core.sync_p99_ns", "ns", "lower", 0},
	{"core.logreader_next_ns", "ns", "lower", 0},
	{"logrec.encode_ns", "ns", "lower", 0},
	{"logrec.decode_ns", "ns", "lower", 0},
	{"logcursor.walk_ns_per_record", "ns", "lower", 0},
	{"experiments.sweep_pass_ms", "ms", "lower", 0},
	{"sim.pool_speedup", "x", "higher", 0},
	// Serving: counts the shard and server export at drain.
	{"lvmd.shard.commits_per_batch", "count", "higher", 0},
	{"lvmd.tail.flushes_per_commit", "count", "lower", 0},
	{"lvmd.tail.bytes_per_commit", "B", "lower", 0},
	{"lvmd.tail.bytes_per_user_byte", "B/B", "lower", 0},
	{"lvmd.server.refused", "count", "lower", 0},
	{"lvmd.server.idle_expired", "count", "lower", 0},
	{"compact.checkpoints_per_s", "1/s", "lower", 0},
	{"compact.snapshot_bytes_per_s", "B/s", "lower", 0},
	{"compact.bytes_truncated", "B", "higher", 0},
	{"logship.batches_per_commit", "count", "lower", 0},
	{"logship.bytes_per_commit", "B", "lower", 0},
	{"logship.stalls", "count", "lower", 0},
	{"logship.consumers_dropped", "count", "lower", 0},
	{"logship.replica_lag_records", "count", "lower", 0},
	// Serving: client-side round trips through the server.
	{"lvmd.client.commit_rtt_us", "us", "lower", 0},
	{"lvmd.client.commit_rtt_us_p99", "us", "lower", 0},
	{"lvmd.client.read_rtt_us", "us", "lower", 0},
	{"lvmd.client.read_rtt_us_p99", "us", "lower", 0},
	{"lvmd.client.commit_samples", "count", "higher", 0},
	{"lvmd.client.read_samples", "count", "higher", 0},
	{"lvmd.wire.stats_rtt_us", "us", "lower", 0},
	{"lvmd.shard.queue_wire_us", "us", "lower", 0},
	// Serving: the commit path driven directly, stage by stage.
	{"lvmd.core.commit_us", "us", "lower", 0},
	{"lvmd.core.sync_batch_us", "us", "lower", 0},
	{"lvmd.core.sync_batch_us_p99", "us", "lower", 0},
	{"lvmd.tail.flush_us", "us", "lower", 0},
	{"lvmd.tail.flush_us_p99", "us", "lower", 0},
	{"logship.flush_all_idle_us", "us", "lower", 0},
	{"logship.flush_all_us", "us", "lower", 0},
	{"logship.wait_acked_us", "us", "lower", 0},
	{"logship.wait_acked_us_p99", "us", "lower", 0},
	{"lvmd.core.read_us", "us", "lower", 0},
	{"lvmd.core.maybe_compact_us", "us", "lower", 0},
	{"lvmd.core.maybe_compact_us_p99", "us", "lower", 0},
	{"lvmd.core.compact_share", "%", "lower", 0},
	// Restart.
	{"recovery.tail_records", "count", "higher", 0},
	{"recovery.reissued_records", "count", "higher", 0},
	{"recovery.replayed_txns", "count", "higher", 0},
	{"logcursor.quarantined", "count", "lower", 0},
	{"recovery.restart_ns_per_record", "ns", "lower", 0},
	{"lvmd.new_server_ms", "ms", "lower", 0},
	{"lvmd.first_read_ms", "ms", "lower", 0},
	{"lvmd.tail.load_ms", "ms", "lower", 0},
	{"lvmd.recover_image_ms", "ms", "lower", 0},
	{"lvmd.boot_rest_ms", "ms", "lower", 0},
	{"compact.recover_ms", "ms", "lower", 0},
	{"recovery.replay_ns_per_record", "ns", "lower", 0},
	{"recovery.replay_speedup_w2", "x", "higher", 0},
	{"recovery.replay_speedup_w4", "x", "higher", 0},
	// The workload's tail latency: too noisy on a disk-backed sandbox to
	// carry an end-to-end bound, so it is reported here.
	{"workload.op_p99_us", "us", "lower", 0},
	// Host and tracing.
	{"host.cpu_s_per_kop", "s", "lower", 0},
	{"host.allocs_per_op", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},
	{"host.loadavg_start", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "higher", 0},
	{"trace.spans_dropped", "count", "lower", 0},
}

// workload names are fixed: later issues cite them.
type workloadDef struct {
	name string
	why  string
	run  func(*runCtx) (*result, error)
}

var workloads = []workloadDef{
	{"sim_store", "logged stores through machine, cache, bus, hwlogger and vm only; lvmd and logship do nothing, so a simulator-only change shows here",
		runSimStore},
	{"sim_sweep", "every paper table, figure and ablation: the same simulator through loads, deferred-copy reset, rvm/rlvm, timewarp, tlblog and the sim worker pool",
		runSimSweep},
	{"serve_commit", "8 closed-loop clients committing 4 stores: wire, session, shard queue, Sync fence, tail append and fsync, reply, compaction; the simulator is a sliver",
		func(c *runCtx) (*result, error) { return runServe(c, serveCommit) }},
	{"serve_mixed", "50% 256-byte reads, 50% 64-store commits: reads skip the fence and fsync, large commits make simulate, log drain and tail encode the bulk",
		func(c *runCtx) (*result, error) { return runServe(c, serveMixed) }},
	{"serve_replicated", "serve_commit plus one synchronous logship replica: seal, frame, CRC, window and ack wait do the marginal work",
		func(c *runCtx) (*result, error) { return runServe(c, serveReplicated) }},
	{"recover_restart", "restart on a 524416-record crash image: tail load, re-issue, logcursor, compact.Recover and the post-recovery checkpoint; the commit path does nothing",
		runRecover},
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 10

// benchmarkDoc is the shape of BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []docEndToEnd `json:"end_to_end"`
	PerLayer   []docLayer    `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type docLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// describe renders BENCHMARK.json from the tables above.
func describe() string {
	doc := benchmarkDoc{Command: []string{"sh", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, docWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docEndToEnd{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, docLayer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return string(b) + "\n"
}
