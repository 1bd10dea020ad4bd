package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"time"

	"lvm/internal/logship"
	"lvm/internal/lvmd"
	"lvm/internal/metrics"
)

// Load sizing, fixed so numbers compare across hosts. The loop is closed:
// lvmd clients are synchronous transactional callers that wait for each
// ack. Eight connections against one shard, because the data directory
// is on whatever filesystem holds the checkout: with eight, one tail
// fsync covers a batch of commits and the disk is about a third of a
// commit; with two it is nearly all of it, and the numbers follow the
// disk's drift instead of the program.
const (
	serveClients  = 8
	serveSegments = 32
	serveWarmOps  = 500 // per client, part of set-up
)

// serveCore is the shard under test: the daemon's default tuning
// (cmd/lvmd) on a log small enough that compaction cycles land inside
// every measured slice.
var serveCore = lvmd.CoreConfig{
	Slots: 64, SlotSize: 4096, LogPages: 256,
	AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024,
}

type serveSpec struct {
	name       string
	stream     streamSpec
	replicated bool
}

func serveStream(stores, readPct int) streamSpec {
	return streamSpec{segments: serveSegments, stores: stores, readPct: readPct, readLen: 256,
		slotSize: serveCore.SlotSize, clients: serveClients}
}

var (
	serveCommit     = serveSpec{name: "serve_commit", stream: serveStream(4, 0)}
	serveMixed      = serveSpec{name: "serve_mixed", stream: serveStream(64, 50)}
	serveReplicated = serveSpec{name: "serve_replicated", stream: serveStream(4, 0), replicated: true}
)

func (s serveSpec) serverConfig(dir string) lvmd.ServerConfig {
	return lvmd.ServerConfig{Dir: dir, Shards: 1,
		Shard: lvmd.ShardConfig{Core: serveCore, SyncReplicas: s.replicated}}
}

// serveEnv is a running server with its clients, their op streams and
// their acked-state models.
type serveEnv struct {
	spec    serveSpec
	dir     string
	srv     *lvmd.Server
	dial    logship.DialFunc
	clients []*lvmd.Client
	streams []*opStream
	models  []*model
	replica *logship.Replica
}

// startServe is the workload's set-up: boot the server in dir, attach
// the replica, connect the clients, open every segment and run the warm
// ops, so the measured loop starts on faulted-in pages and a log that has
// already wrapped into its compaction rhythm.
func startServe(c *runCtx, spec serveSpec, dir string, v *verdict) (*serveEnv, error) {
	srv, err := lvmd.NewServer(spec.serverConfig(dir))
	if err != nil {
		return nil, err
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	e := &serveEnv{spec: spec, dir: dir, srv: srv, dial: dial}
	if spec.replicated {
		arena, err := serveCore.ArenaSize()
		if err != nil {
			e.abort()
			return nil, err
		}
		e.replica, err = logship.NewReplica(lvmd.SubscribeDialer(dial, 0), arena)
		if err != nil {
			e.abort()
			return nil, err
		}
		e.replica.TrackMarkers(lvmd.MarkerLimit)
		if err := e.replica.Connect(); err != nil {
			e.abort()
			return nil, err
		}
	}
	for i := 0; i < serveClients; i++ {
		cl, err := lvmd.DialClient(dial)
		if err != nil {
			e.abort()
			return nil, err
		}
		e.clients = append(e.clients, cl)
		e.streams = append(e.streams, newOpStream(spec.stream, c.seed, spec.name, i))
		e.models = append(e.models, newModel(serveSegments, serveCore.SlotSize))
	}
	// Every client opens every segment and runs its warm ops, all at
	// once, as the measured loop will.
	errs := make([]error, serveClients)
	verdicts := make([]verdict, serveClients)
	var wg sync.WaitGroup
	for i := range e.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seg := uint64(1); seg <= serveSegments; seg++ {
				if _, err := e.clients[i].Open(seg); err != nil {
					errs[i] = fmt.Errorf("open segment %d: %w", seg, err)
					return
				}
			}
			for n := 0; n < c.count(serveWarmOps); n++ {
				if errs[i] = e.do(i, e.streams[i].next(), &verdicts[i]); errs[i] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range errs {
		v.merge(&verdicts[i])
		if errs[i] != nil {
			e.abort()
			return nil, errs[i]
		}
	}
	return e, nil
}

// do runs one op for client i and checks or records its outcome.
func (e *serveEnv) do(i int, o op, v *verdict) error {
	if o.kind == opRead {
		data, err := e.clients[i].Read(o.seg, o.off, o.n)
		if err != nil {
			v.fail("client %d read: %v", i, err)
			return err
		}
		v.pass()
		v.add(e.models[i].check(o.seg, o.off, data))
		return nil
	}
	if err := e.clients[i].Commit(o.seg, o.writes); err != nil {
		v.fail("client %d commit: %v", i, err)
		return err
	}
	v.pass()
	e.models[i].ack(o.seg, o.writes)
	return nil
}

// abort tears a half-built or unwanted environment down.
func (e *serveEnv) abort() {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.srv.Drain()
	if e.replica != nil {
		e.replica.Kill()
	}
	os.RemoveAll(e.dir)
}

// servePhase is what one timed stretch of client load produced.
type servePhase struct {
	commits, reads latencySummary
	ops            int
	wall           time.Duration
	tracers        []*tracer
}

// measure drives every client flat out for total, split into a warm-up
// slice and the measured slices. With traced set, every call is wrapped
// in a span.
func (e *serveEnv) measure(total time.Duration, traced bool, v *verdict) servePhase {
	slice := total / (measuredSlices + 1)
	capacity := int(total.Seconds()*30e3) + 1024 // per client; an overflow fails the run
	var ph servePhase
	commitRecs := make([]*recorder, serveClients)
	readRecs := make([]*recorder, serveClients)
	verdicts := make([]verdict, serveClients)
	ops := make([]int, serveClients)
	ph.tracers = make([]*tracer, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		commitRecs[i] = newRecorder(capacity, slice, measuredSlices+1)
		readRecs[i] = newRecorder(capacity*min(e.spec.stream.readPct, 1), slice, measuredSlices+1)
		if traced {
			ph.tracers[i] = newTracer(start, 1<<15)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, lv := ph.tracers[i], &verdicts[i]
			for n := 0; ; n++ {
				o := e.streams[i].next()
				t0 := time.Since(start)
				if t0 >= total {
					return
				}
				rec, name := commitRecs[i], "lvmd.client.commit"
				if o.kind == opRead {
					rec, name = readRecs[i], "lvmd.client.read"
				}
				sp := tr.begin(name, -1, n)
				var data []byte
				var err error
				if o.kind == opRead {
					data, err = e.clients[i].Read(o.seg, o.off, o.n)
				} else {
					err = e.clients[i].Commit(o.seg, o.writes)
				}
				tr.end(sp)
				t1 := time.Since(start)
				rec.add(int64(t1), int64(t1-t0))
				ops[i]++
				if err != nil {
					lv.fail("client %d: %v", i, err)
					return // the connection is gone
				}
				lv.pass()
				if o.kind == opRead {
					lv.add(e.models[i].check(o.seg, o.off, data))
				} else {
					e.models[i].ack(o.seg, o.writes)
				}
			}
		}(i)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for i := range verdicts {
		v.merge(&verdicts[i])
		ph.ops += ops[i]
	}
	ph.commits = summarize(commitRecs)
	ph.reads = summarize(readRecs)
	v.expect(ph.commits.dropped+ph.reads.dropped == 0, "latency recorder overflowed: %d samples dropped",
		ph.commits.dropped+ph.reads.dropped)
	return ph
}

// finish checks durability and shuts down: every acked word reads back
// before the drain, the drain is clean, the replica (if any) holds the
// primary's bytes, and a server reopened on the same directory serves
// every acked word again and drains to the same digest.
func (e *serveEnv) finish(v *verdict) (lvmd.DrainReport, error) {
	readBack(e.clients[0], serveSegments, serveCore.SlotSize, e.models, v, "before drain")
	for _, cl := range e.clients {
		cl.Close()
	}
	rep := e.srv.Drain()
	defer os.RemoveAll(e.dir)
	v.expect(rep.Drained && len(rep.Shards) == 1 && rep.Shards[0].Error == "", "drain not clean: %+v", rep.Shards)
	if len(rep.Shards) != 1 {
		return rep, fmt.Errorf("drain reported %d shards", len(rep.Shards))
	}
	if e.replica != nil {
		// The drain flushed the last records to the subscriber and closed
		// the stream; Image joins the replica's consume goroutine.
		img := e.replica.Image()
		e.replica.Kill()
		sum := sha256.Sum256(img[lvmd.MarkerLimit:])
		v.expect(hex.EncodeToString(sum[:]) == rep.Shards[0].Digest, "replica image differs from the primary arena")
	}

	srv, err := lvmd.NewServer(e.spec.serverConfig(e.dir))
	if err != nil {
		v.fail("reopen: %v", err)
		return rep, nil
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	cl, err := lvmd.DialClient(dial)
	if err != nil {
		srv.Drain()
		return rep, err
	}
	readBack(cl, serveSegments, serveCore.SlotSize, e.models, v, "after restart")
	cl.Close()
	rep2 := srv.Drain()
	v.expect(rep2.Drained && len(rep2.Shards) == 1 && rep2.Shards[0].Digest == rep.Shards[0].Digest,
		"restart changed the arena digest")
	return rep, nil
}

func runServe(c *runCtx, spec serveSpec) (*result, error) {
	res := newResult(c, spec.name)
	v := &verdict{}
	res.Info["op"] = fmt.Sprintf("commit of %d stores", spec.stream.stores)
	res.Info["stream_digest"] = streamDigest(spec.stream, c.seed, spec.name, 4096)

	// Set-up runs three times; the last environment is the one measured.
	var env *serveEnv
	var setups []float64
	for i := 0; i < 3; i++ {
		if env != nil {
			env.abort()
		}
		dir, err := c.workDir(spec.name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		env, err = startServe(c, spec, dir, v)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setDist("setup_s", distOf(setups, len(setups)))

	before := readHostUsage()
	var ph, traced servePhase
	if !c.trace {
		ph = env.measure(c.total(), false, v)
	} else {
		part := time.Duration(float64(c.total()) * workShare)
		ph = env.measure(part, false, v)
		traced = env.measure(part, true, v)
	}
	res.setHost(before, readHostUsage(), ph.ops+traced.ops)

	res.setDist("op_p50_us", ph.commits.p50us)
	res.setDist("workload.op_p99_us", ph.commits.p99us)
	total50 := ph.commits.perSec
	if spec.stream.readPct > 0 {
		// Reads count as operations: a change that taxes them shows here.
		total50 = addRates(ph.commits.perSec, ph.reads.perSec)
	}
	res.setDist("ops_per_s", total50)
	res.set("lvmd.client.commit_samples", float64(ph.commits.p50us.N))
	res.set("lvmd.client.read_samples", float64(ph.reads.p50us.N))

	var statsRTT []*tracer
	if c.trace {
		statsRTT = append(statsRTT, env.probeStats(c))
	}
	wall := ph.wall + traced.wall
	rep, err := env.finish(v)
	if err != nil {
		return nil, err
	}
	if snap := rep.Shards[0].Metrics; snap != nil {
		setServeCounters(res, snap, rep.Host, wall.Seconds())
		setSimCounters(res, snap)
	}
	if env.replica != nil && rep.Shards[0].Metrics != nil {
		shipped := rep.Shards[0].Metrics.Counters["logship.records_shipped"]
		applied := env.replica.Stats.RecordsApplied.Load()
		res.set("logship.replica_lag_records", float64(shipped)-float64(applied))
	}
	if c.trace {
		if err := traceServe(c, spec, res, ph, traced, statsRTT, v); err != nil {
			return nil, err
		}
	}
	res.finish(v)
	return res, nil
}

// addRates sums two per-slice rates measured over the same slices.
func addRates(a, b dist) dist {
	return dist{Median: a.Median + b.Median, Q1: a.Q1 + b.Q1, Q3: a.Q3 + b.Q3, N: a.N + b.N}
}

// setServeCounters derives the serving layers' ratios from the counters
// the shard and the server already export at drain.
func setServeCounters(res *result, snap *metrics.Snapshot, host lvmd.HostStats, wallS float64) {
	cn := func(name string) float64 { return float64(snap.Counters[name]) }
	commits, batches := cn("lvmd.commits"), cn("lvmd.batches")
	if commits > 0 && batches > 0 {
		res.set("lvmd.shard.commits_per_batch", commits/batches)
		res.set("lvmd.tail.flushes_per_commit", batches/commits)
		res.set("lvmd.tail.bytes_per_commit", cn("lvmd.tail_bytes")/commits)
		res.set("logship.batches_per_commit", cn("logship.batches_shipped")/commits)
		res.set("logship.bytes_per_commit", cn("logship.bytes_shipped")/commits)
	}
	if stores := cn("lvmd.stores"); stores > 0 {
		// An open logs four records (markers and the two directory
		// words); what remains is the commits' own records.
		res.set("lvmd.tail.bytes_per_user_byte", (cn("lvmd.tail_bytes")-cn("lvmd.opens")*64)/(stores*4))
	}
	res.set("lvmd.server.refused", float64(host.RefusedDrain))
	res.set("lvmd.server.idle_expired", float64(host.IdleExpired))
	if wallS > 0 {
		res.set("compact.checkpoints_per_s", cn("compact.checkpoints")/wallS)
		res.set("compact.snapshot_bytes_per_s", cn("compact.snapshot_bytes")/wallS)
	}
	res.set("compact.bytes_truncated", cn("compact.bytes_truncated"))
	res.set("logship.stalls", cn("logship.stalls"))
	res.set("logship.consumers_dropped", cn("logship.consumers_dropped"))
}
