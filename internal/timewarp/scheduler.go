package timewarp

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/cycles"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
)

// SaverKind selects the state-saving strategy (Section 4.3 compares
// copy-based state saving against LVM).
type SaverKind int

const (
	// SaverLVM: logged working segment + deferred-copy checkpoint;
	// rollback = resetDeferredCopy + roll-forward from the log.
	SaverLVM SaverKind = iota
	// SaverCopy: the conventional approach — copy the affected object's
	// state before processing each event; rollback restores the copies.
	SaverCopy
)

func (k SaverKind) String() string {
	if k == SaverLVM {
		return "lvm"
	}
	return "copy"
}

// Application-level cycle costs.
const (
	// SendCycles is the cost of scheduling/enqueueing one event. With
	// DispatchCycles it forms the simulator's per-event loop overhead
	// (~100 cycles), calibrated so that, with w=8 logged writes per
	// event, the logger overflows when c drops below roughly 200 cycles,
	// matching the Figure 7 caption.
	SendCycles = 50
	// DispatchCycles is the per-event dequeue/dispatch overhead.
	DispatchCycles = 50
	// ReplayRecordCycles is the software cost of applying one log record
	// during roll-forward.
	ReplayRecordCycles = 40
	// SaveBookkeepingCycles is the per-event bookkeeping of copy-based
	// state saving (allocating and tagging the save record), on top of
	// the bcopy of the object itself.
	SaveBookkeepingCycles = 100
	// markerBytes reserves the front of the working segment for the LVT
	// marker word (footnote 2 of the paper).
	markerBytes = 16
)

// SchedStats counts scheduler activity.
type SchedStats struct {
	Events      uint64
	Rollbacks   uint64
	RolledBack  uint64
	AntisSent   uint64
	Annihilated uint64
	Replayed    uint64
	CULTRecords uint64
	// TruncFailures counts quiescence-time log truncations the kernel
	// refused; the checkpoint positions stay valid for the kept log.
	TruncFailures uint64
	// LazyKept counts sends that lazy cancellation preserved because
	// re-execution reproduced them identically.
	LazyKept uint64
}

// processedEvent remembers everything needed to undo one event.
type processedEvent struct {
	ev       Event
	sent     []Event
	logStart uint32 // LVM: log offset before this event's marker
	save     []byte // copy: the object's prior state
}

// arenaMaxChunk caps an arena chunk's length in elements.
const arenaMaxChunk = 1 << 14

// arena hands out capped sub-slices of a backing chunk, each once and
// never reused. A full chunk is replaced by a fresh one (twice as long, up
// to arenaMaxChunk), not grown in place, so earlier sub-slices keep their
// contents; the garbage collector frees a chunk once no slice points into
// it.
type arena[T any] struct{ buf []T }

// take returns a fresh n-element slice (nil for n == 0).
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]T, 0, max(n, min(2*cap(a.buf), arenaMaxChunk)))
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// Scheduler is one TimeWarp scheduler: a simulated process owning a
// partition of the objects, with the segment arrangement of Figure 3.
type Scheduler struct {
	id  int
	sim *Sim
	p   *core.Process

	saver SaverKind

	working *core.Segment
	ckpt    *core.Segment    // LVM only
	logSeg  *core.Segment    // LVM only
	cm      *compact.Manager // LVM only: owns logSeg's prefix lifecycle
	reg     *core.Region
	base    core.Addr

	// recordsIssued counts logged writes issued by this scheduler, which
	// (absent absorbs) equals the log append offset / 16. Tracking it in
	// software avoids a logger sync per event.
	recordsIssued uint32
	ckptPos       uint32 // log offset corresponding to the checkpoint state
	ckptTime      VT
	walkBuf       []byte // replay's records, kept between walks

	q         inputQueue
	processed []processedEvent
	lvt       VT
	seq       uint32
	// While Handle runs (sending), sends collect in sentBuf for step to
	// copy out; pointing at the processedEvent would move it to the heap.
	sending bool
	sentBuf []Event
	// sents and saves back every processed event's sent and save slices,
	// so lazyPrev and rollback may hold them for as long as they like.
	sents arena[Event]
	saves arena[byte]

	// lazyPrev holds, per undone-but-not-yet-re-executed event, the
	// sends of its previous execution (lazy cancellation).
	lazyPrev map[EventID][]Event
	// curPrev is the previous-send list of the event being re-executed.
	curPrev []Event

	Stats SchedStats
}

func newScheduler(sim *Sim, id int) (*Scheduler, error) {
	cfg := sim.cfg
	s := &Scheduler{id: id, sim: sim, saver: cfg.Saver}
	size := markerBytes + uint32(cfg.ObjectsPerScheduler)*cfg.ObjectBytes
	size = (size + core.PageSize - 1) &^ uint32(core.PageSize-1)
	sys := sim.sys
	name := fmt.Sprintf("tw%d", id)
	as := sys.NewAddressSpace()
	s.p = sys.NewProcess(id%sim.schedCPUs, as)
	s.working = core.NewNamedSegment(sys, name+"-working", size, nil)
	s.reg = core.NewStdRegion(sys, s.working)
	if cfg.Saver == SaverLVM {
		s.ckpt = core.NewNamedSegment(sys, name+"-ckpt", size, nil)
		if err := s.working.SetSourceSegment(s.ckpt, 0); err != nil {
			return nil, err
		}
		s.logSeg = sys.K.NewLogSegment(name+"-log", cfg.LogPages)
		if err := s.reg.Log(s.logSeg); err != nil {
			return nil, err
		}
		var err error
		s.cm, err = compact.New(sys, compact.Options{Log: s.logSeg})
		if err != nil {
			return nil, err
		}
	}
	base, err := s.reg.Bind(as, 0)
	if err != nil {
		return nil, err
	}
	s.base = base
	return s, nil
}

// objVA returns the address of word `word` of local object `local`.
func (s *Scheduler) objVA(local uint32, word int) core.Addr {
	return s.base + markerBytes + local*s.sim.cfg.ObjectBytes + uint32(word*4)
}

// local converts a global object index owned by this scheduler to its
// local index.
func (s *Scheduler) local(obj uint32) uint32 {
	return obj / uint32(len(s.sim.scheds))
}

// ReadWord reads word `word` of the state of (owned) object obj.
func (s *Scheduler) ReadWord(obj uint32, word int) uint32 {
	return s.p.Load32(s.objVA(s.local(obj), word))
}

// WriteWord updates word `word` of object obj's state. Under LVM this is
// a logged write-through; under copy-based saving it is an ordinary
// write (the object was copied before the event started).
func (s *Scheduler) WriteWord(obj uint32, word int, v uint32) {
	s.p.Store32(s.objVA(s.local(obj), word), v)
	if s.saver == SaverLVM {
		s.recordsIssued++
	}
}

// Compute charges event-handler computation.
func (s *Scheduler) Compute(n uint64) { s.p.Compute(n) }

// Send schedules an event for object obj at virtual time t.
func (s *Scheduler) Send(t VT, obj uint32, data uint32) {
	// Lazy cancellation: if this event's previous execution already sent
	// an identical event, the original stays in flight — nothing to do
	// but account for it.
	for i, prev := range s.curPrev {
		if prev.Time == t && prev.Obj == obj && prev.Data == data {
			s.curPrev = append(s.curPrev[:i], s.curPrev[i+1:]...)
			if s.sending {
				s.sentBuf = append(s.sentBuf, prev)
			}
			s.p.Compute(SendCycles / 2)
			s.Stats.LazyKept++
			return
		}
	}
	ev := Event{Time: t, ID: EventID{Sched: uint32(s.id), Seq: s.seq}, Obj: obj, Data: data}
	s.seq++
	if s.sending {
		s.sentBuf = append(s.sentBuf, ev)
	}
	s.p.Compute(SendCycles)
	s.sim.deliver(ev)
}

// ensureLogSpace extends the log segment ahead of the hardware head so no
// records are ever absorbed ("normally in advance of a fault at the end of
// the log segment", Section 3.2).
func (s *Scheduler) ensureLogSpace() {
	need := (s.recordsIssued + 64) * logrec.Size
	if need >= s.logSeg.Size() {
		s.logSeg.Extend((need-s.logSeg.Size())/core.PageSize + 2)
	}
}

// step processes the next pending event. It returns false if the queue is
// empty.
func (s *Scheduler) step() bool {
	ev, ok := s.q.pop()
	if !ok {
		return false
	}
	s.lvt = ev.Time
	s.p.Compute(DispatchCycles)
	pe := processedEvent{ev: ev}
	if s.saver == SaverLVM {
		s.ensureLogSpace()
		pe.logStart = s.recordsIssued * logrec.Size
		// Write the LVT marker: "The scheduler writes a certain memory
		// location each time local virtual time changes. Log records of
		// these writes serve as markers" (footnote 2).
		s.p.Store32(s.base, ev.Time)
		s.recordsIssued++
	} else {
		// Copy-based state saving: snapshot the target object.
		local := s.local(ev.Obj)
		off := markerBytes + local*s.sim.cfg.ObjectBytes
		pe.save = s.saves.take(int(s.sim.cfg.ObjectBytes))
		s.working.ReadInto(off, pe.save)
		lines := uint64((s.sim.cfg.ObjectBytes + core.LineSize - 1) / core.LineSize)
		s.p.Compute(SaveBookkeepingCycles + lines*cycles.BcopyLineCycles)
	}
	if s.lazyPrev != nil {
		if prev, ok := s.lazyPrev[ev.ID]; ok {
			delete(s.lazyPrev, ev.ID)
			s.curPrev = prev
		}
	}
	s.sending = true
	s.sim.handler.Handle(s, ev)
	s.sending = false
	pe.sent = s.sents.take(len(s.sentBuf))
	copy(pe.sent, s.sentBuf)
	s.sentBuf = s.sentBuf[:0]
	// Lazy cancellation: whatever the previous execution sent that this
	// one did not gets cancelled now.
	for _, stale := range s.curPrev {
		anti := stale
		anti.Anti = true
		s.Stats.AntisSent++
		s.p.Compute(SendCycles)
		s.sim.deliver(anti)
	}
	s.curPrev = nil
	s.processed = append(s.processed, pe)
	s.Stats.Events++
	return true
}

// arrival delivers an event (or anti-message) to this scheduler.
func (s *Scheduler) arrival(ev Event) {
	if ev.Anti {
		if s.q.remove(ev.ID) {
			s.Stats.Annihilated++
			s.cancelLazy(ev.ID)
			return
		}
		if s.findProcessed(ev.ID) >= 0 {
			pos := ev
			pos.Anti = false
			s.rollback(pos)
			if s.q.remove(ev.ID) {
				s.Stats.Annihilated++
			}
			s.cancelLazy(ev.ID)
			return
		}
		// The positive was already annihilated or never arrived (cannot
		// happen in this in-memory transport); ignore.
		return
	}
	// A straggler is any event ordered before something already
	// processed; rollback() is a no-op when the suffix is empty.
	s.rollback(ev)
	s.q.push(ev)
}

// cancelLazy flushes the stashed sends of an event that will never
// re-execute (its positive was annihilated): they must be cancelled now.
func (s *Scheduler) cancelLazy(id EventID) {
	prev, ok := s.lazyPrev[id]
	if !ok {
		return
	}
	delete(s.lazyPrev, id)
	for _, e := range prev {
		anti := e
		anti.Anti = true
		s.Stats.AntisSent++
		s.p.Compute(SendCycles)
		s.sim.deliver(anti)
	}
}

func (s *Scheduler) findProcessed(id EventID) int {
	for i := len(s.processed) - 1; i >= 0; i-- {
		if s.processed[i].ev.ID == id {
			return i
		}
	}
	return -1
}

// rollback undoes every processed event ordered at or after ref: the
// TimeWarp rollback of Section 2.4. Under LVM: resetDeferredCopy back to
// the checkpoint, then roll forward by applying the log up to the first
// undone event; under copy-based saving: restore the per-event copies in
// reverse order. Undone events return to the input queue and their sends
// are cancelled with anti-messages.
func (s *Scheduler) rollback(ref Event) {
	var undone []processedEvent
	for len(s.processed) > 0 {
		pe := s.processed[len(s.processed)-1]
		if pe.ev.before(ref) {
			break
		}
		s.processed[len(s.processed)-1] = processedEvent{}
		s.processed = s.processed[:len(s.processed)-1]
		undone = append(undone, pe)
	}
	if len(undone) == 0 {
		return
	}
	s.Stats.Rollbacks++
	s.Stats.RolledBack += uint64(len(undone))

	if s.saver == SaverCopy {
		// undone is reverse-chronological: restoring in slice order
		// rewinds each object to its earliest saved state.
		for _, pe := range undone {
			local := s.local(pe.ev.Obj)
			off := markerBytes + local*s.sim.cfg.ObjectBytes
			s.working.RawWrite(off, pe.save)
			lines := uint64((s.sim.cfg.ObjectBytes + core.LineSize - 1) / core.LineSize)
			s.p.Compute(lines * cycles.BcopyLineCycles)
		}
	} else {
		rewindOff := undone[len(undone)-1].logStart
		s.resetAndRollForward(rewindOff)
	}

	for _, pe := range undone {
		s.q.push(pe.ev)
	}
	if s.sim.cfg.LazyCancellation {
		// Remember the sends; the re-execution cancels only what it does
		// not reproduce.
		if s.lazyPrev == nil {
			s.lazyPrev = make(map[EventID][]Event)
		}
		for _, pe := range undone {
			if len(pe.sent) > 0 {
				s.lazyPrev[pe.ev.ID] = pe.sent
			}
		}
	} else {
		for _, pe := range undone {
			for _, sent := range pe.sent {
				anti := sent
				anti.Anti = true
				s.Stats.AntisSent++
				s.p.Compute(SendCycles)
				s.sim.deliver(anti)
			}
		}
	}
	if len(s.processed) > 0 {
		s.lvt = s.processed[len(s.processed)-1].ev.Time
	} else {
		s.lvt = s.ckptTime
	}
}

// resetAndRollForward implements the LVM rollback: "a scheduler first
// resets the contents of the working segment to that of the checkpoint
// segment by calling resetDeferredCopy(). The scheduler then rolls the
// working segment forward by applying each update found in the log...
// until it reaches the time of the newly-received event."
func (s *Scheduler) resetAndRollForward(rewindOff uint32) {
	k := s.sim.sys.K
	if _, err := k.ResetDeferredCopySegment(s.working, s.p.CPU); err != nil {
		panic(err)
	}
	s.replay(rewindOff, s.working, func() {
		s.p.Compute(ReplayRecordCycles)
		s.Stats.Replayed++
	})
	if err := k.RewindLog(s.logSeg, rewindOff); err != nil {
		panic(err)
	}
	s.recordsIssued = rewindOff / logrec.Size
}

// cult performs checkpoint update and log truncation once GVT has
// advanced (Section 2.4): logged updates older than GVT are applied to the
// checkpoint segment, fossils are collected, and the log is truncated when
// fully consumed.
func (s *Scheduler) cult(gvt VT) {
	idx := 0
	for idx < len(s.processed) && s.processed[idx].ev.Time < gvt {
		idx++
	}
	if s.saver == SaverCopy {
		// Fossil collection: saves older than GVT can never be needed.
		s.dropProcessed(idx)
		return
	}
	end := s.recordsIssued * logrec.Size
	if idx < len(s.processed) {
		end = s.processed[idx].logStart
	}
	if end > s.ckptPos {
		s.replay(end, s.ckpt, func() {
			s.Stats.CULTRecords++
			switch {
			case s.sim.cultCPU != nil:
				// The separate CULT process of Section 2.4.
				s.sim.cultCPU.Compute(ReplayRecordCycles)
			case s.sim.cfg.ChargeCULT:
				s.p.Compute(ReplayRecordCycles)
			}
		})
		s.ckptPos = end
	}
	s.ckptTime = gvt
	s.dropProcessed(idx)
	// Truncate when everything is consumed and nothing is outstanding.
	// A refused truncation is not silent — it used to be tested only for
	// success, which left ckptPos/recordsIssued pointing into a log that
	// was never cut with no trace. The positions stay valid for the
	// untruncated log (the next quiescence retries), and the failure is
	// tallied where tests and metrics can see it.
	if len(s.processed) == 0 && s.q.len() == 0 && s.ckptPos == s.recordsIssued*logrec.Size && s.ckptPos > 0 {
		if err := s.cm.TruncateAll(); err != nil {
			s.Stats.TruncFailures++
		} else {
			s.ckptPos = 0
			s.recordsIssued = 0
		}
	}
}

// replay applies the logged writes from the checkpoint's log position to
// end (or the log's end) to dst, calling each after every one. Only a
// simulator bug can damage the scheduler's log, so a quarantine panics.
func (s *Scheduler) replay(end uint32, dst *core.Segment, each func()) {
	r := core.NewLogReader(s.sim.sys, s.logSeg)
	if err := r.Seek(s.ckptPos); err != nil {
		panic(err)
	}
	if end < r.End() {
		r.SetEnd(end)
	}
	st := logcursor.WalkLog(&s.walkBuf, r, s.working, func(rec logcursor.Rec) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], rec.Value)
		dst.RawWrite(rec.Off, b[:rec.Size])
		each()
	}, nil)
	if st.Quarantined() {
		panic(fmt.Sprintf("timewarp: scheduler %d: log record %d (offset %d, size %d) is not a write into its segment",
			s.id, st.Bad.Idx, st.Bad.Off, st.Bad.Size))
	}
}

// dropProcessed collects the n oldest processed events as fossils,
// compacting the list in place. The vacated tail is zeroed so no dropped
// sent or save slice stays reachable through the backing array.
func (s *Scheduler) dropProcessed(n int) {
	if n == 0 {
		return
	}
	kept := copy(s.processed, s.processed[n:])
	clear(s.processed[kept:])
	s.processed = s.processed[:kept]
}
