package main

import (
	"time"

	"lvm/internal/bus"
	"lvm/internal/core"
	"lvm/internal/experiments"
	"lvm/internal/hwlogger"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/phys"
	"lvm/internal/sim"
	"lvm/internal/tlblog"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeBatch is how many back-to-back calls one probe span covers: the
// probed functions take nanoseconds, a clock read takes as long.
const probeBatch = 4096

// probeSpans caps the spans one probe records; a median needs no more.
const probeSpans = 2048

// probe times batches of calls for about d. run(n) makes n calls; prep,
// if not nil, resets state before each batch and is not timed.
func probe(tr *tracer, name string, d time.Duration, batch int, prep func(), run func(n int)) {
	end := time.Now().Add(d)
	for op := 0; op == 0 || (op < probeSpans && time.Now().Before(end)); op++ {
		if prep != nil {
			prep()
		}
		sp := tr.begin(name, -1, op)
		run(batch)
		tr.endCalls(sp, batch)
	}
}

// simProbeOut is what the simulator probes found besides their spans.
type simProbeOut struct {
	tr          *tracer
	poolSpeedup float64 // a figure's sweep at one worker over the same at all workers
	chipStalls  uint64  // on-chip write-buffer stalls over a fixed burst of stores
}

// simProbes times the simulator's layers one exported call at a time,
// each on the smallest machine that exercises it (built the way
// experiments.Table2 builds its machines). budget is split evenly.
func simProbes(c *runCtx, budget time.Duration) simProbeOut {
	out := simProbeOut{tr: newTracer(time.Now(), 1<<16)}
	tr := out.tr
	each := budget / 12

	{ // machine: write-through store and load on one CPU
		m := machine.New(machine.Config{NumCPUs: 1, MemFrames: 16})
		cpu := m.CPUs[0]
		f, _ := m.Phys.Alloc() // 16 fresh frames: cannot fail
		addr := phys.FrameBase(f)
		probe(tr, "machine.word_write", each, probeBatch, nil, func(n int) {
			for i := 0; i < n; i++ {
				cpu.WordWrite(addr+phys.Addr(i&1023)*4, uint32(i&1023)*4, uint32(i), 4, true, false)
			}
		})
		probe(tr, "machine.word_read", each, probeBatch, nil, func(n int) {
			for i := 0; i < n; i++ {
				cpu.WordRead(addr + phys.Addr(i&1023)*4)
			}
		})
		sink += cpu.Now
	}
	{ // bus arbitration alone
		b := bus.New()
		t := uint64(0)
		probe(tr, "bus.acquire", each, probeBatch, nil, func(n int) {
			for i := 0; i < n; i++ {
				t = b.Acquire(t, 5) + 1
			}
		})
		sink += t
	}
	{ // bus logger: snoop into the FIFO, then drain it to memory
		mem := phys.NewMemory(16)
		for i := 0; i < 8; i++ {
			mem.Alloc() //nolint:errcheck // 16 fresh frames: cannot fail
		}
		b := bus.New()
		l := hwlogger.New(b, mem)
		l.LoadPMT(1, 0)
		const batch = 128 // 2 KiB of records: stays inside one log page
		t := uint64(0)
		for end, n := time.Now().Add(each*2), 0; n < probeSpans && time.Now().Before(end); n++ {
			l.SetLogHead(0, 0x2000, hwlogger.ModeRecord)
			sp := tr.begin("hwlogger.snoop", -1, 0)
			for i := 0; i < batch; i++ {
				t += 40
				l.Snoop(machine.LoggedWrite{Addr: 0x1000 + phys.Addr(i)*4, Value: uint32(i), Size: 4, Time: t})
			}
			tr.endCalls(sp, batch)
			sp = tr.begin("hwlogger.drain", -1, 0)
			t = l.DrainAll()
			tr.endCalls(sp, batch)
		}
		sink += t
	}
	{ // on-chip logger: snoop (its write buffer drains as it fills)
		m := machine.New(machine.Config{NumCPUs: 1, MemFrames: 64})
		l := tlblog.New(m.Bus, m.Phys)
		l.MapPage(0, 0)
		var logBase phys.Addr
		for i := 0; i < 4; i++ {
			f, _ := m.Phys.Alloc() // 64 fresh frames: cannot fail
			if i == 0 {
				logBase = phys.FrameBase(f)
			}
		}
		t := uint64(0)
		const batch = 128
		probe(tr, "tlblog.snoop", each, batch,
			func() { l.SetDescriptor(0, logBase, logBase+4*phys.PageSize); t = l.DrainAll() },
			func(n int) {
				for i := 0; i < n; i++ {
					t += 40
					l.Snoop(machine.LoggedWrite{Addr: 0x1000, VAddr: uint32(i&1023) * 4, Value: uint32(i), Size: 4, Time: t})
				}
			})
		// A fixed back-to-back burst: the stall count repeats exactly.
		l.SetDescriptor(0, logBase, logBase+4*phys.PageSize)
		t = l.DrainAll()
		before := l.StallEvents
		for i := 0; i < 512; i++ {
			t++
			l.Snoop(machine.LoggedWrite{Addr: 0x1000, VAddr: uint32(i) * 4, Value: uint32(i), Size: 4, Time: t})
		}
		out.chipStalls = l.StallEvents - before
		sink += t
	}
	{ // core: the Sync fence after a six-store transaction, and the log reader
		sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 2048})
		seg := core.NewStdSegment(sys, 64*core.PageSize, nil)
		reg := core.NewStdRegion(sys, seg)
		ls := core.NewLogSegment(sys, 64)
		as := sys.NewAddressSpace()
		if err := reg.Log(ls); err == nil {
			if base, err := reg.Bind(as, 0); err == nil {
				p := sys.NewProcess(0, as)
				r := core.NewLogReader(sys, ls)
				n := 0
				for end, rounds := time.Now().Add(each*2), 0; rounds < 4 && time.Now().Before(end); rounds++ {
					for k := 0; k < 2000; k++ { // 12000 records: inside the 64-page log
						for j := 0; j < 6; j++ {
							p.Store32(base+core.Addr(n%(64*1024))*4, uint32(n))
							n++
						}
						sp := tr.begin("core.sync", -1, k)
						sys.Sync()
						tr.end(sp)
					}
					r.Sync()
					recs := r.Remaining()
					sp := tr.begin("core.logreader_next", -1, 0)
					for {
						rec, ok := r.Next()
						if !ok {
							break
						}
						sink += uint64(rec.Value)
					}
					tr.endCalls(sp, recs)
					if err := r.Truncate(); err != nil {
						break
					}
				}
			}
		}
	}
	{ // record codec and the validated cursor over a byte stream
		var buf [logrec.Size]byte
		rec := logrec.Record{Addr: 0x40, Value: 7, WriteSize: 4, CPU: 0, Timestamp: 99}
		probe(tr, "logrec.encode", each, probeBatch, nil, func(n int) {
			for i := 0; i < n; i++ {
				rec.Value = uint32(i)
				rec.Encode(buf[:])
			}
		})
		probe(tr, "logrec.decode", each, probeBatch, nil, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(logrec.Decode(buf[:]).Value)
			}
		})
		const segSize, txns = 1 << 16, 1024
		stream := make([]byte, 0, txns*6*logrec.Size)
		for t := uint32(1); t <= txns; t++ {
			put := func(off, val uint32) {
				logrec.Record{Addr: off, Value: val, WriteSize: 4}.Encode(buf[:])
				stream = append(stream, buf[:]...)
			}
			put(0, t)
			for j := uint32(0); j < 4; j++ {
				put(16+((t*4+j)*4)%(segSize-16), t)
			}
			put(0, t|logcursor.MarkerCommit)
		}
		probe(tr, "logcursor.walk", each, txns*6, nil, func(int) {
			w := logcursor.NewWalker(logcursor.Config{View: logcursor.Committed, MarkerLimit: 16,
				End: uint32(len(stream)), Apply: func(r logcursor.Rec) { sink += uint64(r.Value) }})
			st := logcursor.Run(logcursor.NewBytesSource(stream, segSize), w)
			sink += uint64(st.Applied)
		})
	}
	{ // the sweep worker pool: one figure at one worker and at all of them
		events := c.count(100)
		timeFig := func(workers int) time.Duration {
			old := sim.Workers()
			sim.SetWorkers(workers)
			defer sim.SetWorkers(old)
			sp := tr.begin("sim.fig7", -1, workers)
			t0 := time.Now()
			if pts, err := experiments.Fig7(events); err == nil {
				sink += uint64(len(pts))
			}
			tr.end(sp)
			return time.Since(t0)
		}
		timeFig(1) // warm
		var seq, par time.Duration
		for i := 0; i < 3; i++ {
			seq += timeFig(1)
			par += timeFig(sim.Workers())
		}
		out.poolSpeedup = float64(seq) / float64(par)
	}
	return out
}

// setSimProbes reports the simulator probes' per-call host times.
func setSimProbes(res *result, out simProbeOut, workload *tracer) {
	st := spanStats([]*tracer{workload, out.tr})
	ns := func(metric, spanName string) {
		if s, ok := st[spanName]; ok {
			res.set(metric, s.p50ns)
		}
	}
	ns("machine.store_ns", "machine.store_block")
	ns("machine.word_write_ns", "machine.word_write")
	ns("machine.word_read_ns", "machine.word_read")
	ns("bus.acquire_ns", "bus.acquire")
	ns("hwlogger.snoop_ns", "hwlogger.snoop")
	ns("hwlogger.drain_ns_per_record", "hwlogger.drain")
	ns("tlblog.snoop_ns", "tlblog.snoop")
	ns("core.sync_ns", "core.sync")
	ns("core.logreader_next_ns", "core.logreader_next")
	ns("logrec.encode_ns", "logrec.encode")
	ns("logrec.decode_ns", "logrec.decode")
	ns("logcursor.walk_ns_per_record", "logcursor.walk")
	if s, ok := st["core.sync"]; ok {
		res.set("core.sync_p99_ns", s.p99ns)
	}
	if s, ok := st["experiments.sweep_pass"]; ok {
		res.set("experiments.sweep_pass_ms", s.p50ns/1e6)
	}
	res.set("sim.pool_speedup", out.poolSpeedup)
	res.set("tlblog.stall_events", float64(out.chipStalls))
}
