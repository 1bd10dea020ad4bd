package metrics

// The event tracer is a fixed-capacity ring of fixed-size records. The
// first Enable allocates the ring (almost no machine enables its tracer,
// and a sweep builds hundreds of machines); nothing allocates after that,
// and each Emit is a few stores into the ring. It is for control-plane
// events (page faults, logging faults, overloads, log advances, rewinds),
// not for per-store tracing — the per-store signal is what the counters
// and histograms are for.
//
// The tracer starts disabled, so an Emit costs one predictable branch
// until Enable is called. Every Emit site is on an event path, none on
// the per-store path.

// EventKind identifies a traced event.
type EventKind uint16

const (
	// EvPageFault: A = virtual page number, B = backing frame.
	EvPageFault EventKind = iota
	// EvLoggingFault: A = fault kind (hwlogger.FaultKind), B = PPN.
	EvLoggingFault
	// EvOverload: A = drain-complete cycle, B = resume cycle.
	EvOverload
	// EvLogAdvance: A = log segment id, B = fresh page number.
	EvLogAdvance
	// EvLogAbsorb: A = log segment id.
	EvLogAbsorb
	// EvLogRewind: A = log segment id, B = new append offset.
	EvLogRewind
	// EvChipStall: A = stall cycles.
	EvChipStall

	numEventKinds
)

var eventKindName = [numEventKinds]string{
	EvPageFault:    "page_fault",
	EvLoggingFault: "logging_fault",
	EvOverload:     "overload",
	EvLogAdvance:   "log_advance",
	EvLogAbsorb:    "log_absorb",
	EvLogRewind:    "log_rewind",
	EvChipStall:    "chip_stall",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindName) {
		return eventKindName[k]
	}
	return "unknown"
}

// TraceEvent is one traced event. Time is in simulated cycles; CPU is the
// simulated CPU involved, or -1 for bus devices and the kernel acting
// outside any CPU's context.
type TraceEvent struct {
	Time uint64    `json:"time"`
	Kind EventKind `json:"kind"`
	CPU  int16     `json:"cpu"`
	A    uint64    `json:"a"`
	B    uint64    `json:"b"`
}

// KindName is Kind.String, exported on the event for JSON consumers.
func (e TraceEvent) KindName() string { return e.Kind.String() }

// DefaultTraceCapacity is the ring size New uses: enough to hold the
// recent control-plane history of a long run. An enabled ring is
// 4096 * 32 bytes = 128 KiB; a tracer that is never enabled holds none.
const DefaultTraceCapacity = 4096

// Tracer is the fixed-capacity ring. The zero capacity and nil tracer are
// both valid and drop everything.
type Tracer struct {
	capacity int
	buf      []TraceEvent // nil until the first Enable
	head     int          // index of oldest event
	n        int          // events currently held
	dropped  uint64
	enabled  bool
}

// NewTracer creates a disabled tracer with the given ring capacity.
func NewTracer(capacity int) *Tracer {
	if capacity < 0 {
		capacity = 0
	}
	return &Tracer{capacity: capacity}
}

// Enable turns event recording on, allocating the ring the first time.
func (t *Tracer) Enable() {
	if t == nil {
		return
	}
	if t.buf == nil {
		t.buf = make([]TraceEvent, t.capacity)
	}
	t.enabled = true
}

// Enabled reports whether Emit currently records.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Emit records an event, overwriting the oldest when the ring is full.
// It is safe on a nil tracer.
func (t *Tracer) Emit(time uint64, kind EventKind, cpu int, a, b uint64) {
	if t == nil || !t.enabled {
		return
	}
	if len(t.buf) == 0 {
		t.dropped++
		return
	}
	idx := t.head + t.n
	if idx >= len(t.buf) {
		idx -= len(t.buf)
	}
	t.buf[idx] = TraceEvent{Time: time, Kind: kind, CPU: int16(cpu), A: a, B: b}
	if t.n < len(t.buf) {
		t.n++
	} else {
		// Ring full: the slot we just wrote was the oldest event.
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.dropped++
	}
}

// Dropped reports how many events were overwritten or discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events copies the ring out in oldest-first order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]TraceEvent, t.n)
	for i := 0; i < t.n; i++ {
		idx := t.head + i
		if idx >= len(t.buf) {
			idx -= len(t.buf)
		}
		out[i] = t.buf[idx]
	}
	return out
}
