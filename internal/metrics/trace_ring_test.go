package metrics

import "testing"

// TestTracerRingAllocatedOnEnable: a machine's tracer is almost never
// enabled and a sweep builds hundreds of machines, so the 128 KiB ring
// must not exist until Enable asks for it. Once it exists it is the fixed
// ring it always was.
func TestTracerRingAllocatedOnEnable(t *testing.T) {
	tr := New(1).Tracer()
	tr.Emit(1, EvPageFault, 0, 0, 0)
	tr.Disable()
	if tr.buf != nil {
		t.Fatalf("a never-enabled tracer holds a %d-event ring", len(tr.buf))
	}
	tr.Enable()
	if len(tr.buf) != DefaultTraceCapacity {
		t.Fatalf("enabled ring holds %d events, want %d", len(tr.buf), DefaultTraceCapacity)
	}

	const extra = 10
	for i := uint64(0); i < DefaultTraceCapacity+extra; i++ {
		tr.Emit(i, EvLogAdvance, -1, i, 2*i)
	}
	evs := tr.Events()
	if len(evs) != DefaultTraceCapacity || tr.Dropped() != extra {
		t.Fatalf("len = %d, dropped = %d, want %d, %d", len(evs), tr.Dropped(), DefaultTraceCapacity, extra)
	}
	for i, e := range evs {
		if want := uint64(i + extra); e.Time != want || e.A != want || e.B != 2*want || e.CPU != -1 {
			t.Fatalf("event %d = %+v, want time %d", i, e, want)
		}
	}

	// Disable/Enable keeps the ring and what it holds.
	ring := &tr.buf[0]
	tr.Disable()
	tr.Enable()
	if &tr.buf[0] != ring || tr.Len() != DefaultTraceCapacity {
		t.Fatalf("re-Enable replaced the ring (len %d)", tr.Len())
	}
}
