package timewarp

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/machine"
)

// Handler processes events. Implementations must be deterministic
// functions of (event, target object state) and may only touch the state
// of the event's target object, send events, and charge computation.
type Handler interface {
	Handle(s *Scheduler, ev Event)
}

// Config describes a simulation.
type Config struct {
	Schedulers          int
	ObjectsPerScheduler int
	// ObjectBytes is the per-object state size (the paper's parameter s).
	ObjectBytes uint32
	// Saver selects LVM or copy-based state saving.
	Saver SaverKind
	// LogPages is the initial LVM log capacity per scheduler.
	LogPages uint32
	// GVTInterval is the number of steps between GVT computations (and
	// CULT processing). 0 = default 64.
	GVTInterval int
	// ChargeCULT charges CULT record application to the scheduler's CPU.
	// The paper performs CULT asynchronously ("can also be performed by
	// a separate parallel process") and excludes it from the Section 4.3
	// measurements, so the default is false.
	ChargeCULT bool
	// LazyCancellation switches rollback from aggressive cancellation
	// (anti-messages sent immediately for every undone event's sends) to
	// lazy cancellation: the undone sends are remembered, and when the
	// event re-executes, sends that come out identical are simply kept —
	// only the differences are cancelled. When re-execution reproduces
	// the same behaviour (common when a straggler touches different
	// state), no anti-messages flow at all.
	LazyCancellation bool
	// CULTProcessor dedicates an extra machine CPU to CULT processing —
	// the paper's separate parallel process. CULT record application is
	// charged to that CPU instead of the schedulers', so checkpoint
	// advancement consumes real machine time without slowing the
	// simulation (unless the CULT processor itself becomes the
	// bottleneck).
	CULTProcessor bool
	// MemFrames sizes the machine (0 = 64 MiB).
	MemFrames int
}

// Policy selects which scheduler steps next; different policies exercise
// different interleavings (and hence rollback behaviour), but the final
// simulation state must not depend on the choice — that is TimeWarp's
// correctness property, and the test suite checks it.
type Policy int

const (
	// PolicyGlobalOrder always steps the scheduler holding the globally
	// smallest pending event: no rollbacks ever occur.
	PolicyGlobalOrder Policy = iota
	// PolicyRoundRobin steps schedulers cyclically regardless of virtual
	// time, letting some run ahead and roll back.
	PolicyRoundRobin
	// PolicyLeastCycles steps the scheduler with the smallest local
	// cycle clock (a throughput-balanced machine).
	PolicyLeastCycles
)

// Sim is a complete optimistic simulation instance.
type Sim struct {
	sys     *core.System
	cfg     Config
	handler Handler
	scheds  []*Scheduler
	gvt     VT

	// cultCPU is the dedicated CULT processor, when configured.
	cultCPU *machine.CPU
	// schedCPUs is how many machine CPUs run schedulers.
	schedCPUs int

	injectSeq uint32

	Steps uint64
	GVTs  uint64
}

// New builds a simulation with its own machine (one CPU per scheduler,
// capped at the ParaDiGM prototype's four).
func New(cfg Config, h Handler) (*Sim, error) {
	if cfg.Schedulers <= 0 {
		cfg.Schedulers = 1
	}
	if cfg.ObjectsPerScheduler <= 0 {
		cfg.ObjectsPerScheduler = 4
	}
	if cfg.ObjectBytes == 0 {
		cfg.ObjectBytes = 64
	}
	if cfg.ObjectBytes%4 != 0 {
		return nil, fmt.Errorf("timewarp: ObjectBytes must be word aligned")
	}
	if cfg.LogPages == 0 {
		cfg.LogPages = 64
	}
	if cfg.GVTInterval <= 0 {
		cfg.GVTInterval = 64
	}
	ncpu := cfg.Schedulers
	if ncpu > 4 {
		ncpu = 4
	}
	if cfg.CULTProcessor {
		ncpu++
	}
	frames := cfg.MemFrames
	if frames == 0 {
		frames = 64 << 8
	}
	sim := &Sim{
		sys:     core.NewSystem(core.Config{NumCPUs: ncpu, MemFrames: frames}),
		cfg:     cfg,
		handler: h,
	}
	sim.schedCPUs = ncpu
	if cfg.CULTProcessor {
		sim.cultCPU = sim.sys.Machine().CPUs[ncpu-1]
		sim.schedCPUs = ncpu - 1
	}
	for i := 0; i < cfg.Schedulers; i++ {
		s, err := newScheduler(sim, i)
		if err != nil {
			return nil, err
		}
		sim.scheds = append(sim.scheds, s)
	}
	return sim, nil
}

// owner returns the scheduler owning a global object index (objects are
// striped across schedulers).
func (s *Sim) owner(obj uint32) *Scheduler {
	return s.scheds[obj%uint32(len(s.scheds))]
}

// deliver routes an event to its owner.
func (s *Sim) deliver(ev Event) { s.owner(ev.Obj).arrival(ev) }

// Inject enqueues an initial event (use before Run).
func (s *Sim) Inject(t VT, obj uint32, data uint32) {
	ev := Event{Time: t, ID: EventID{Sched: ^uint32(0), Seq: s.injectSeq}, Obj: obj, Data: data}
	s.injectSeq++
	s.deliver(ev)
}

// computeGVT: with the synchronous in-memory transport, every event is in
// some input queue between steps, so GVT is the minimum pending event time
// (the minimum of the LVTs all schedulers could be forced back to).
func (s *Sim) computeGVT() (VT, bool) {
	var mn VT
	found := false
	for _, sc := range s.scheds {
		if ev, ok := sc.q.peek(); ok {
			if !found || ev.Time < mn {
				mn = ev.Time
				found = true
			}
		}
	}
	return mn, found
}

// RunSteps executes at most maxSteps event steps under the policy,
// returning how many ran (fewer means the simulation quiesced). GVT/CULT
// processing still runs on its configured interval.
func (s *Sim) RunSteps(policy Policy, maxSteps int) uint64 {
	var ran uint64
	rr := 0
	for i := 0; i < maxSteps; i++ {
		sc := s.pick(policy, &rr)
		if sc == nil {
			break
		}
		sc.step()
		s.Steps++
		ran++
		if s.Steps%uint64(s.cfg.GVTInterval) == 0 {
			if gvt, ok := s.computeGVT(); ok {
				if gvt > s.gvt {
					s.gvt = gvt
				}
				s.GVTs++
				for _, sc := range s.scheds {
					sc.cult(s.gvt)
				}
			}
		}
	}
	return ran
}

// Run drives the simulation to completion under the given policy and
// returns the total elapsed machine time in cycles.
func (s *Sim) Run(policy Policy) uint64 {
	steps := 0
	rr := 0
	for {
		sc := s.pick(policy, &rr)
		if sc == nil {
			break
		}
		sc.step()
		s.Steps++
		steps++
		if steps%s.cfg.GVTInterval == 0 {
			if gvt, ok := s.computeGVT(); ok {
				if gvt > s.gvt {
					s.gvt = gvt
				}
				s.GVTs++
				for _, sc := range s.scheds {
					sc.cult(s.gvt)
				}
			}
		}
	}
	// Final CULT at quiescence: everything is committed.
	for _, sc := range s.scheds {
		sc.cult(^VT(0))
	}
	return s.sys.Sync()
}

func (s *Sim) pick(policy Policy, rr *int) *Scheduler {
	switch policy {
	case PolicyGlobalOrder:
		var best *Scheduler
		var bestEv Event
		for _, sc := range s.scheds {
			if ev, ok := sc.q.peek(); ok {
				if best == nil || ev.before(bestEv) {
					best, bestEv = sc, ev
				}
			}
		}
		return best
	case PolicyRoundRobin:
		for i := 0; i < len(s.scheds); i++ {
			sc := s.scheds[(*rr+i)%len(s.scheds)]
			if sc.q.len() > 0 {
				*rr = (*rr + i + 1) % len(s.scheds)
				return sc
			}
		}
		return nil
	case PolicyLeastCycles:
		var best *Scheduler
		for _, sc := range s.scheds {
			if sc.q.len() == 0 {
				continue
			}
			if best == nil || sc.p.Now() < best.p.Now() {
				best = sc
			}
		}
		return best
	}
	return nil
}

// ObjectWord reads word `word` of a global object's current state (raw;
// for result extraction and tests).
func (s *Sim) ObjectWord(obj uint32, word int) uint32 {
	sc := s.owner(obj)
	local := sc.local(obj)
	return sc.working.Read32(markerBytes + local*s.cfg.ObjectBytes + uint32(word*4))
}

// TotalStats sums scheduler statistics.
func (s *Sim) TotalStats() SchedStats {
	var t SchedStats
	for _, sc := range s.scheds {
		t.Events += sc.Stats.Events
		t.Rollbacks += sc.Stats.Rollbacks
		t.RolledBack += sc.Stats.RolledBack
		t.AntisSent += sc.Stats.AntisSent
		t.Annihilated += sc.Stats.Annihilated
		t.Replayed += sc.Stats.Replayed
		t.CULTRecords += sc.Stats.CULTRecords
		t.LazyKept += sc.Stats.LazyKept
	}
	return t
}
