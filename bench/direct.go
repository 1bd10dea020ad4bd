package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// probeStats times Client.Stats, which the session answers without a
// shard hop: the cost of the wire, the in-memory pipe and the session
// alone.
func (e *serveEnv) probeStats(c *runCtx) *tracer {
	tr := newTracer(time.Now(), 1<<13)
	for i := 0; i < c.count(4000); i++ {
		sp := tr.begin("lvmd.wire.stats", -1, i)
		if _, err := e.clients[0].Stats(); err != nil {
			break
		}
		tr.end(sp)
	}
	return tr
}

// directDrive replays the workload's seeded op stream single-threaded
// against the commit path's own parts — file disk, tail file, shard core
// and shipper, assembled the way lvmd.NewShard assembles them — with a
// span around every exported call the shard loop makes per batch. What a
// client round trip costs beyond these spans is wire, session and queue.
func directDrive(c *runCtx, spec serveSpec, batchMean float64, budget time.Duration, v *verdict) (*tracer, time.Duration, error) {
	dir, err := c.workDir(spec.name + "-direct")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	disk, err := lvmd.OpenFileDisk(filepath.Join(dir, "shard-0.ckpt"))
	if err != nil {
		return nil, 0, err
	}
	defer disk.Close()
	tail, err := lvmd.OpenTail(filepath.Join(dir, "shard-0.tail"))
	if err != nil {
		return nil, 0, err
	}
	defer tail.Close()
	// A second tail file takes the same bytes through Append+Flush alone:
	// SyncBatch's self time is its span minus this one.
	bare, err := lvmd.OpenTail(filepath.Join(dir, "bare.tail"))
	if err != nil {
		return nil, 0, err
	}
	defer bare.Close()
	cfg := serveCore
	cfg.Disk, cfg.Tail = disk, tail
	core, err := lvmd.NewCore(cfg, nil, 0)
	if err != nil {
		return nil, 0, err
	}
	ln, dial := logship.NewMemTransport()
	defer ln.Close()
	ship := logship.NewShipper(core.Sys, core.Arena, core.LogSeg, ln, logship.Config{Epoch: core.Mgr.Epoch()})
	defer ship.Close()
	core.SetShipper(ship)
	core.EnableTuning()
	if spec.replicated {
		rep, err := logship.NewReplica(dial, core.Arena.Size())
		if err != nil {
			return nil, 0, err
		}
		rep.TrackMarkers(lvmd.MarkerLimit)
		if err := rep.Connect(); err != nil {
			return nil, 0, err
		}
		defer rep.Kill()
	}
	for seg := uint64(1); seg <= serveSegments; seg++ {
		if _, _, err := core.Open(seg); err != nil {
			return nil, 0, err
		}
	}
	if err := core.SyncBatch(); err != nil {
		return nil, 0, err
	}

	// One stream, as one client would send it: the ops are the same kind
	// and shape the server saw, batched to the mean size it saw.
	stream := newOpStream(spec.stream, c.seed, spec.name, 0)
	tr := newTracer(time.Now(), 1<<18)
	flushed := make([]int, 0, 4096) // tail bytes each batch appended
	start := time.Now()
	carry := 0.0
	ops := 0
	for batch := 0; time.Since(start) < budget*7/10; batch++ {
		carry += batchMean
		n := int(carry)
		if n < 1 {
			n = 1
		}
		carry -= float64(n)
		root := tr.begin("lvmd.core.batch", -1, batch)
		var reads []op
		tailBefore := tail.Size()
		commits := 0
		for i := 0; i < n; i++ {
			o := stream.next()
			ops++
			if o.kind == opRead {
				reads = append(reads, o)
				continue
			}
			sp := tr.begin("lvmd.core.commit", root, batch)
			_, err := core.Commit(o.seg, o.writes)
			tr.end(sp)
			if err != nil {
				return nil, 0, fmt.Errorf("direct commit: %w", err)
			}
			commits++
		}
		if commits > 0 {
			sp := tr.begin("lvmd.core.sync_batch", root, batch)
			err := core.SyncBatch()
			tr.end(sp)
			if err != nil {
				return nil, 0, fmt.Errorf("direct sync: %w", err)
			}
			name := "logship.flush_all_idle"
			if spec.replicated {
				name = "logship.flush_all"
			}
			sp = tr.begin(name, root, batch)
			err = ship.FlushAll()
			tr.end(sp)
			if err != nil {
				return nil, 0, fmt.Errorf("direct flush: %w", err)
			}
			if spec.replicated {
				sp = tr.begin("logship.wait_acked", root, batch)
				err = ship.WaitAcked(ship.SealedSeq(), 2*time.Second)
				tr.end(sp)
				v.expect(err == nil, "direct drive: replica did not ack: %v", err)
			}
		}
		for _, o := range reads {
			sp := tr.begin("lvmd.core.read", root, batch)
			_, err := core.Read(o.seg, o.off, o.n)
			tr.end(sp)
			if err != nil {
				return nil, 0, fmt.Errorf("direct read: %w", err)
			}
		}
		tr.end(root)
		sp := tr.begin("lvmd.core.maybe_compact", -1, batch)
		_, err := core.MaybeCompact()
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("direct compact: %w", err)
		}
		if grew := int(tail.Size()) - int(tailBefore); commits > 0 && grew > 0 && len(flushed) < cap(flushed) {
			flushed = append(flushed, grew)
		}
	}
	wall := time.Since(start)
	// The batches' byte counts again, through the bare tail file alone.
	// Run after the drive, not interleaved with it: two files fsynced
	// back to back make each other's journal commits slower.
	zeros := make([]byte, 1<<16)
	for i := 0; len(flushed) > 0 && time.Since(start) < wall+budget*3/10; i++ {
		n := min(flushed[i%len(flushed)], len(zeros))
		sp := tr.begin("lvmd.tail.flush", -1, i)
		bare.Append(zeros[:n])
		err := bare.Flush()
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		if bare.Size() > 8<<20 {
			if err := bare.Reset(0); err != nil {
				return nil, 0, err
			}
		}
	}
	v.add(ops, 0)
	return tr, wall, nil
}

// traceServe is the traced run's extra work for a serving workload: the
// direct drive, and the per-layer times derived from all spans.
func traceServe(c *runCtx, spec serveSpec, res *result, ph, traced servePhase, extra []*tracer, v *verdict) error {
	batchMean := res.Metrics["lvmd.shard.commits_per_batch"].Value
	if spec.stream.readPct > 0 {
		batchMean *= 100 / float64(100-spec.stream.readPct) // ops per batch, reads included
	}
	if batchMean < 1 {
		batchMean = 1
	}
	direct, wall, err := directDrive(c, spec, batchMean, c.probeBudget(), v)
	if err != nil {
		return err
	}
	tracers := append(append([]*tracer{}, traced.tracers...), extra...)
	tracers = append(tracers, direct)
	st := spanStats(tracers)
	us := func(metric, spanName string) float64 {
		s, ok := st[spanName]
		if !ok {
			return 0
		}
		res.set(metric, s.p50ns/1e3)
		res.set(metric+"_p99", s.p99ns/1e3)
		return s.p50ns / 1e3
	}
	rtt := us("lvmd.client.commit_rtt_us", "lvmd.client.commit")
	us("lvmd.client.read_rtt_us", "lvmd.client.read")
	us("lvmd.wire.stats_rtt_us", "lvmd.wire.stats")
	commit := us("lvmd.core.commit_us", "lvmd.core.commit")
	syncB := us("lvmd.core.sync_batch_us", "lvmd.core.sync_batch")
	us("lvmd.tail.flush_us", "lvmd.tail.flush")
	flush := us("logship.flush_all_idle_us", "logship.flush_all_idle") + us("logship.flush_all_us", "logship.flush_all")
	wait := us("logship.wait_acked_us", "logship.wait_acked")
	us("lvmd.core.read_us", "lvmd.core.read")
	us("lvmd.core.maybe_compact_us", "lvmd.core.maybe_compact")
	if wall > 0 {
		res.set("lvmd.core.compact_share", float64(st["lvmd.core.maybe_compact"].totalNs)/float64(wall)*100)
	}
	// A residual, not a span: what a commit's round trip costs beyond the
	// stages the shard loop runs for its batch.
	commitsPerBatch := res.Metrics["lvmd.shard.commits_per_batch"].Value
	if commitsPerBatch < 1 {
		commitsPerBatch = 1
	}
	res.set("lvmd.shard.queue_wire_us", rtt-(commitsPerBatch*commit+syncB+flush+wait))
	setOverhead(res, ph.commits.perSec.Median+ph.reads.perSec.Median,
		traced.commits.perSec.Median+traced.reads.perSec.Median)
	return finishTrace(c, res, tracers)
}
