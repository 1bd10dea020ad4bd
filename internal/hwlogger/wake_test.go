package hwlogger_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lvm/internal/core"
	"lvm/internal/machine"
	"lvm/internal/metrics"
)

// eager wraps a log device and reports wake 0 from Snoop and PumpUntil,
// so its machine calls it on every bus request: the reference a machine
// that skips calls before the reported wake must match.
type eager struct{ machine.LogDevice }

func (e eager) Snoop(w machine.LoggedWrite) (uint64, uint64) {
	stall, _ := e.LogDevice.Snoop(w)
	return stall, 0
}

func (e eager) PumpUntil(t uint64) uint64 {
	e.LogDevice.PumpUntil(t)
	return 0
}

// wakeCase is one machine and workload for TestWakeGateExact.
type wakeCase struct {
	onChip      bool
	cpus        int
	group       int    // group-commit batch (bus logger; <= 1 is per record)
	deadline    uint64 // group-commit deadline
	regroup     int    // batch set halfway through (0 = none)
	absorb      int    // write-absorption window (0 = off)
	threshold   int    // overload threshold (0 = the prototype's)
	writeBuffer int    // on-chip write buffer (0 = default)
}

func (c wakeCase) String() string {
	if c.onChip {
		return fmt.Sprintf("onchip/cpus=%d/wb=%d", c.cpus, c.writeBuffer)
	}
	return fmt.Sprintf("bus/cpus=%d/group=%d,%d/regroup=%d/absorb=%d/threshold=%d",
		c.cpus, c.group, c.deadline, c.regroup, c.absorb, c.threshold)
}

// wakeResult is everything a run's simulation decides.
type wakeResult struct {
	Now, Stall []uint64
	Log        []byte
	Metrics    map[string]uint64
	Hists      map[string]metrics.Hist
}

// runWake drives a seeded multi-CPU stream of logged stores, loads,
// overload storms and Sync fences through a fresh system, its log device
// wrapped in eager when eagerPump is set.
func runWake(t *testing.T, c wakeCase, seed int64, eagerPump bool) wakeResult {
	t.Helper()
	cfg := core.Config{NumCPUs: c.cpus, MemFrames: 1024}
	var sys *core.System
	if c.onChip {
		sys = core.NewSystemOnChip(cfg)
		if c.writeBuffer > 0 {
			sys.K.Chip.WriteBuffer = c.writeBuffer
		}
	} else {
		sys = core.NewSystem(cfg)
		if c.threshold > 0 {
			sys.K.Log.Threshold = c.threshold
		}
	}
	if eagerPump {
		if c.onChip {
			sys.Machine().AttachLog(eager{sys.K.Chip})
		} else {
			sys.Machine().AttachLog(eager{sys.K.Log})
		}
	}
	sys.EnableGroupCommit(c.group, c.deadline)
	sys.EnableWriteAbsorption(c.absorb)

	const dataPages = 8
	seg := core.NewStdSegment(sys, dataPages*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 48)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*core.Process, c.cpus)
	for i := range procs {
		procs[i] = sys.NewProcess(i, as)
	}

	rng := rand.New(rand.NewSource(seed))
	const steps = 4000
	storm := 0
	for step := 0; step < steps; step++ {
		if c.regroup > 0 && step == steps/2 {
			sys.EnableGroupCommit(c.regroup, c.deadline/4)
		}
		// Mostly the CPU furthest behind, as a discrete-event scheduler
		// would pick; sometimes any, so clocks drift apart.
		p := procs[rng.Intn(len(procs))]
		if rng.Intn(4) != 0 {
			for _, q := range procs {
				if q.Now() < p.Now() {
					p = q
				}
			}
		}
		if storm == 0 && rng.Intn(400) == 0 {
			storm = 60 + rng.Intn(100)
		}
		if storm > 0 {
			storm--
		} else {
			p.Compute(uint64(rng.Intn(48)))
		}
		va := base + core.Addr(rng.Intn(dataPages*core.PageSize/4))*4
		switch r := rng.Intn(100); {
		case r < 80:
			p.Store32(va, rng.Uint32())
		case r < 84:
			p.Store32(base+core.Addr(rng.Intn(8))*4, rng.Uint32()) // a hot word: absorbable
		case r < 99:
			p.Load32(va)
		default:
			sys.Sync()
		}
	}
	sys.Sync()

	var res wakeResult
	for _, cpu := range sys.Machine().CPUs {
		res.Now = append(res.Now, cpu.Now)
		res.Stall = append(res.Stall, cpu.StallCycles)
	}
	res.Log = ls.RawRead(0, ls.Size())
	snap := sys.MetricsSnapshot()
	res.Metrics, res.Hists = snap.Counters, snap.Histograms
	return res
}

// TestWakeGateExact: a machine that calls its log device only past the
// device's reported wake simulates exactly what one that calls it on
// every bus request does — every CPU's clock and stall cycles, the log
// segment's bytes and the whole metrics snapshot.
func TestWakeGateExact(t *testing.T) {
	var cases []wakeCase
	for _, cpus := range []int{2, 4} {
		for _, g := range []struct {
			n  int
			dl uint64
		}{{1, 0}, {4, 60}, {4, 900}, {8, 0}, {8, 300}, {8, 5000}} {
			for _, absorb := range []int{0, 8} {
				cases = append(cases, wakeCase{cpus: cpus, group: g.n, deadline: g.dl, absorb: absorb})
			}
		}
		cases = append(cases,
			wakeCase{cpus: cpus, group: 8, deadline: 4000, regroup: 1},
			wakeCase{cpus: cpus, group: 1, deadline: 2000, regroup: 4},
			wakeCase{cpus: cpus, group: 1, threshold: 24},
			wakeCase{cpus: cpus, group: 8, deadline: 600, absorb: 8, threshold: 24},
			wakeCase{onChip: true, cpus: cpus, writeBuffer: 2},
			wakeCase{onChip: true, cpus: cpus, writeBuffer: 1},
		)
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				gated, every := runWake(t, c, seed, false), runWake(t, c, seed, true)
				if !reflect.DeepEqual(gated.Now, every.Now) || !reflect.DeepEqual(gated.Stall, every.Stall) {
					t.Fatalf("seed %d: clocks %v stalls %v, pumping every request %v %v",
						seed, gated.Now, gated.Stall, every.Now, every.Stall)
				}
				if !reflect.DeepEqual(gated.Log, every.Log) {
					t.Fatalf("seed %d: log segments differ", seed)
				}
				if !reflect.DeepEqual(gated.Metrics, every.Metrics) || !reflect.DeepEqual(gated.Hists, every.Hists) {
					t.Fatalf("seed %d: metrics differ:\n%v\n%v", seed, gated.Metrics, every.Metrics)
				}
			}
		})
	}
}
