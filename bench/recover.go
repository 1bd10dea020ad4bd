package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// recover_restart sizing. The log is large enough that the preload never
// reaches the compaction threshold: a restart replays every record.
const (
	recoverShards   = 2
	recoverStores   = 62   // + 2 markers = 64 records per commit
	recoverCommits  = 8192 // 524288 tail records over both shards
	recoverLoaders  = 8    // preload connections (set-up, not measured)
	recoverWarmups  = 2    // restarts discarded before the timed ones
	recoverLogPages = 8192
)

var recoverCore = lvmd.CoreConfig{
	Slots: 64, SlotSize: 4096, LogPages: recoverLogPages,
	AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024,
}

func recoverConfig(dir string) lvmd.ServerConfig {
	return lvmd.ServerConfig{Dir: dir, Shards: recoverShards, Shard: lvmd.ShardConfig{Core: recoverCore}}
}

func recoverStream() streamSpec {
	return streamSpec{segments: serveSegments, stores: recoverStores, readLen: 256,
		slotSize: recoverCore.SlotSize, clients: recoverLoaders}
}

// snapshot is a crash image: the checkpoint and tail files as they were
// once every preload commit was acknowledged (acked means fsynced, and
// nothing unflushed is in the files), with what the clients were told.
type snapshot struct {
	dir     string
	models  []*model
	digests []string // per shard, from the preload server's own drain
	records int      // tail records over all shards
}

// preload is recover_restart's set-up: serve, load, copy the files.
func preload(c *runCtx, v *verdict) (*snapshot, error) {
	dir, err := c.workDir("recover-preload")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := lvmd.NewServer(recoverConfig(dir))
	if err != nil {
		return nil, err
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	spec := recoverStream()
	snap := &snapshot{}
	errs := make([]error, recoverLoaders)
	var wg sync.WaitGroup
	for i := 0; i < recoverLoaders; i++ {
		snap.models = append(snap.models, newModel(serveSegments, recoverCore.SlotSize))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				cl, err := lvmd.DialClient(dial)
				if err != nil {
					return err
				}
				defer cl.Close()
				for seg := uint64(1); seg <= serveSegments; seg++ {
					if _, err := cl.Open(seg); err != nil {
						return err
					}
				}
				stream := newOpStream(spec, c.seed, "recover_restart", i)
				for n := 0; n < c.count(recoverCommits)/recoverLoaders; n++ {
					o := stream.next()
					if err := cl.Commit(o.seg, o.writes); err != nil {
						return err
					}
					snap.models[i].ack(o.seg, o.writes)
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			srv.Drain()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	snap.dir, err = c.workDir("recover-snapshot")
	if err == nil {
		err = copyShardFiles(dir, snap.dir)
	}
	rep := srv.Drain()
	if err != nil {
		return nil, err
	}
	v.expect(rep.Drained, "preload drain not clean")
	for _, sh := range rep.Shards {
		snap.digests = append(snap.digests, sh.Digest)
		if sh.Metrics != nil {
			// Two checkpoints are the boot's and the drain's; a third
			// would be a compaction, and the tail would be cut.
			v.expect(sh.Metrics.Counters["compact.checkpoints"] <= 2 && sh.Metrics.Counters["compact.bytes_truncated"] == 0,
				"preload compacted: the tail no longer holds every record")
			snap.records += int(sh.Metrics.Counters["lvmd.tail_bytes"] / 16)
		}
	}
	v.add(c.count(recoverCommits), 0)
	return snap, nil
}

func copyShardFiles(from, to string) error {
	for i := 0; i < recoverShards; i++ {
		for _, ext := range []string{"ckpt", "tail"} {
			name := fmt.Sprintf("shard-%d.%s", i, ext)
			if err := copyFile(filepath.Join(from, name), filepath.Join(to, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// restart boots a server on a fresh copy of the snapshot and times it
// from the NewServer call to the first acked word read back. Afterwards
// it checks what recovery reported, optionally reads every acked word
// back, and drains; the drained digests must equal the preload's.
func restart(c *runCtx, snap *snapshot, tr *tracer, op int, full bool, v *verdict) (time.Duration, []lvmd.RecoverInfo, error) {
	dir, err := c.workDir("recover-restart")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyShardFiles(snap.dir, dir); err != nil {
		return 0, nil, err
	}
	probe := firstAcked(snap.models[0])

	t0 := time.Now()
	root := tr.begin("lvmd.restart", -1, op)
	sp := tr.begin("lvmd.new_server", root, op)
	srv, err := lvmd.NewServer(recoverConfig(dir))
	tr.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("restart: %w", err)
	}
	sp = tr.begin("lvmd.first_read", root, op)
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	cl, err := lvmd.DialClient(dial)
	if err != nil {
		srv.Drain()
		return 0, nil, err
	}
	data, err := cl.Read(probe.seg, probe.off, 4)
	tr.end(sp)
	tr.end(root)
	took := time.Since(t0)

	if err != nil {
		v.fail("restart: first read: %v", err)
	} else {
		v.expect(binary.LittleEndian.Uint32(data) == probe.val, "restart: first acked word read back wrong")
	}
	infos := srv.RecoverInfos()
	reissued := 0
	for _, in := range infos {
		reissued += in.ReissuedRecords
		v.expect(!in.Quarantined() && in.InvalidRecords == 0, "restart: recovery quarantined part of the tail")
	}
	v.expect(reissued == snap.records, "restart: re-issued %d of %d tail records", reissued, snap.records)
	if full {
		readBack(cl, serveSegments, recoverCore.SlotSize, snap.models, v, "after restart")
	}
	cl.Close()
	rep := srv.Drain()
	same := rep.Drained && len(rep.Shards) == len(snap.digests)
	for i := 0; same && i < len(rep.Shards); i++ {
		same = rep.Shards[i].Digest == snap.digests[i]
	}
	v.expect(same, "restart: recovered digest differs from the state the preload acknowledged")
	return took, infos, nil
}

type ackedWord struct {
	seg      uint64
	off, val uint32
}

// firstAcked picks a word the model holds an ack for.
func firstAcked(m *model) ackedWord {
	for i, ok := range m.acked {
		if ok {
			return ackedWord{seg: uint64(uint32(i)/m.slotWords) + 1, off: uint32(i) % m.slotWords * 4, val: m.val[i]}
		}
	}
	return ackedWord{seg: 1}
}

func runRecover(c *runCtx) (*result, error) {
	res := newResult(c, "recover_restart")
	v := &verdict{}
	res.Info["op"] = "restart: NewServer on a crash image to the first acked word read back"

	var snap *snapshot
	var setups []float64
	for i := 0; i < 3; i++ {
		if snap != nil {
			os.RemoveAll(snap.dir)
		}
		t0 := time.Now()
		var err error
		if snap, err = preload(c, v); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(snap.dir)
	res.setDist("setup_s", distOf(setups, len(setups)))
	res.Info["tail_records"] = fmt.Sprint(snap.records)

	for i := 0; i < recoverWarmups; i++ {
		if _, _, err := restart(c, snap, nil, i, false, v); err != nil {
			return nil, err
		}
	}
	var lastInfos []lvmd.RecoverInfo
	before := readHostUsage()
	t, err := c.runTimed(1<<12, func(total time.Duration, tr *tracer) (latencySummary, int, error) {
		// No warm-up slice here: the discarded restarts above are the
		// warm-up, so all the time goes to measured slices.
		rec := newRecorder(1<<12, total/measuredSlices, measuredSlices+1)
		rec.busy = true
		base := int64(total / measuredSlices) // shifts every op past slice 0
		start := time.Now()
		n := 0
		for time.Since(start) < total {
			took, infos, err := restart(c, snap, tr, n, false, v)
			if err != nil {
				return latencySummary{}, n, err
			}
			rec.add(base+int64(time.Since(start)), int64(took))
			lastInfos = infos
			n++
		}
		return summarize([]*recorder{rec}), n, nil
	})
	if err != nil {
		return nil, err
	}
	res.setHost(before, readHostUsage(), t.ops)
	res.setDist("op_p50_us", t.plain.p50us)
	res.setDist("workload.op_p99_us", t.plain.p99us)
	res.setDist("ops_per_s", t.plain.perSec)

	// One more restart, untimed, reads every acked word back.
	if _, _, err := restart(c, snap, nil, t.ops, true, v); err != nil {
		return nil, err
	}

	if c.trace {
		var tailRecs, reissued, txns, quarantined int
		for _, in := range lastInfos {
			tailRecs += in.TailRecords
			reissued += in.ReissuedRecords
			txns += in.Txns
			if in.Quarantined() {
				quarantined++
			}
		}
		res.set("recovery.tail_records", float64(tailRecs))
		res.set("recovery.reissued_records", float64(reissued))
		res.set("recovery.replayed_txns", float64(txns))
		res.set("logcursor.quarantined", float64(quarantined))
		if tailRecs > 0 {
			res.set("recovery.restart_ns_per_record", t.plain.p50us.Median*1e3/float64(tailRecs))
		}
		probes, err := recoverProbes(c, snap, res, v)
		if err != nil {
			return nil, err
		}
		st := spanStats([]*tracer{t.tr, probes})
		ms := func(metric, spanName string) float64 {
			res.set(metric, st[spanName].p50ns/1e6)
			return st[spanName].p50ns / 1e6
		}
		boot := ms("lvmd.new_server_ms", "lvmd.new_server")
		ms("lvmd.first_read_ms", "lvmd.first_read")
		ms("lvmd.tail.load_ms", "lvmd.tail.load")
		img := ms("lvmd.recover_image_ms", "lvmd.recover_image")
		ms("compact.recover_ms", "compact.recover")
		// NewServer recovers the shards one after another; what is left
		// is the post-recovery checkpoint, the tail reset and the
		// ownership scan.
		res.set("lvmd.boot_rest_ms", boot-img*recoverShards)
		setOverhead(res, t.plain.perSec.Median, t.traced.perSec.Median)
		if err := finishTrace(c, res, []*tracer{t.tr, probes}); err != nil {
			return nil, err
		}
	}
	res.finish(v)
	return res, nil
}

// recoverProbes times the layers a restart runs through, each from
// outside: loading a tail file, RecoverImage on one shard's files, and —
// on a log rebuilt by re-running one loader's commits through a core with
// tuning off, as RecoverImage's throwaway machine does — compact.Recover
// and recovery.Replay at 1, 2 and 4 workers, whose images must agree.
func recoverProbes(c *runCtx, snap *snapshot, res *result, v *verdict) (*tracer, error) {
	tr := newTracer(time.Now(), 1<<10)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		sp := tr.begin("lvmd.tail.load", -1, i)
		tail, err := lvmd.OpenTail(filepath.Join(snap.dir, "shard-0.tail"))
		if err != nil {
			return nil, err
		}
		_, err = tail.Load()
		tr.end(sp)
		if err != nil {
			tail.Close()
			return nil, err
		}
		disk, err := lvmd.OpenFileDisk(filepath.Join(snap.dir, "shard-0.ckpt"))
		if err != nil {
			tail.Close()
			return nil, err
		}
		cfg := recoverCore
		cfg.Disk = disk
		sp = tr.begin("lvmd.recover_image", -1, i)
		_, _, err = lvmd.RecoverImage(cfg, tail)
		tr.end(sp)
		disk.Close()
		tail.Close()
		if err != nil {
			return nil, err
		}
	}

	cfg := recoverCore
	cfg.Disk = ramdisk.New()
	sc, err := lvmd.NewCore(cfg, nil, 0)
	if err != nil {
		return nil, err
	}
	for seg := uint64(1); seg <= serveSegments; seg++ {
		if _, _, err := sc.Open(seg); err != nil {
			return nil, err
		}
	}
	stream := newOpStream(recoverStream(), c.seed, "recover_restart", 0)
	commits := c.count(recoverCommits) / recoverShards
	for n := 0; n < commits; n++ {
		o := stream.next()
		if _, err := sc.Commit(o.seg, o.writes); err != nil {
			return nil, err
		}
	}
	sc.Sys.Sync()
	records := float64(commits * (recoverStores + 2))
	size := sc.Arena.Size()
	var ref []byte
	var seqNs float64
	for _, workers := range []int{0, 2, 4} {
		name := fmt.Sprintf("recovery.replay_w%d", workers)
		var img []byte
		for i := 0; i < rounds; i++ {
			dst := core.NewNamedSegment(sc.Sys, "bench-replay", size, nil)
			sp := tr.begin(name, -1, i)
			r := recovery.Replay(sc.Sys, recovery.ReplayOptions{Log: sc.LogSeg, Data: sc.Arena, Dst: dst,
				MarkerLimit: lvmd.MarkerLimit, Workers: workers})
			tr.end(sp)
			v.expect(r.Txns == commits+serveSegments, "replay at %d workers walked %d transactions, want %d",
				workers, r.Txns, commits+serveSegments)
			img = make([]byte, size)
			dst.ReadInto(0, img)
		}
		ns := spanStats([]*tracer{tr})[name].p50ns
		if workers == 0 {
			ref, seqNs = img, ns
			res.set("recovery.replay_ns_per_record", ns/records)
			continue
		}
		v.expect(bytes.Equal(img[lvmd.MarkerLimit:], ref[lvmd.MarkerLimit:]), "replay at %d workers built a different image", workers)
		if ns > 0 {
			res.set(fmt.Sprintf("recovery.replay_speedup_w%d", workers), seqNs/ns)
		}
	}
	for i := 0; i < rounds; i++ {
		dst := core.NewNamedSegment(sc.Sys, "bench-recover", size, nil)
		sp := tr.begin("compact.recover", -1, i)
		_, err := compact.Recover(sc.Sys, compact.RecoverOptions{
			Disk: recovery.NewRetryDisk(cfg.Disk, nil, sc.Sys.DeviceShard()),
			Log:  sc.LogSeg, Data: sc.Arena, Dst: dst, MarkerLimit: lvmd.MarkerLimit})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return tr, nil
}
