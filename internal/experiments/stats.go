package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lvm/internal/metrics"
)

// StatsReport is the output of the `lvmbench stats` subcommand: a full
// counter/histogram snapshot of the instrumented simulator after a
// canonical logged-store run, plus the tail of the control-plane event
// trace.
type StatsReport struct {
	Iters  int
	Snap   *metrics.Snapshot
	Events []metrics.TraceEvent
}

// Stats runs the standard logged-store workload (the same one the
// zero-allocation gate and bench/'s sim_store measure) for iters
// iterations with event tracing enabled, and snapshots every counter the
// simulator keeps.
func Stats(iters int) (*StatsReport, error) {
	sl, err := NewStoreLoop()
	if err != nil {
		return nil, err
	}
	sl.Sys.Trace().Enable()
	if err := sl.Warm(); err != nil {
		return nil, err
	}
	for i := 0; i < iters; i++ {
		sl.Step()
	}
	if err := sl.Err(); err != nil {
		return nil, err
	}
	return &StatsReport{
		Iters:  iters,
		Snap:   sl.Sys.MetricsSnapshot(),
		Events: sl.Sys.Trace().Events(),
	}, nil
}

// FormatStats renders the report: counters sorted by name, histograms
// with their power-of-two buckets, and the most recent trace events.
func FormatStats(r *StatsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counters after %d logged-store iterations:\n\n", r.Iters)

	names := make([]string, 0, len(r.Snap.Counters))
	width := 0
	for name := range r.Snap.Counters {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-*s %12d\n", width, name, r.Snap.Counters[name])
	}

	hnames := make([]string, 0, len(r.Snap.Histograms))
	for name := range r.Snap.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := r.Snap.Histograms[name]
		fmt.Fprintf(&b, "\nhistogram %s (%d samples):\n", name, h.Count)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "  <= %-10d %12d\n", bk.Le, bk.Count)
		}
	}

	if len(r.Events) > 0 {
		const tail = 10
		evs := r.Events
		if len(evs) > tail {
			evs = evs[len(evs)-tail:]
		}
		fmt.Fprintf(&b, "\nlast %d trace events (of %d buffered, %d dropped):\n",
			len(evs), len(r.Events), r.Snap.TraceDropped)
		for _, e := range evs {
			fmt.Fprintf(&b, "  t=%-10d cpu=%-3d %-14s a=%d b=%d\n",
				e.Time, e.CPU, e.KindName(), e.A, e.B)
		}
	}
	return b.String()
}
