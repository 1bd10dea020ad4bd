package timewarp

import "testing"

// vacatedClean reports whether every slot of sc.processed past its length
// is the zero processedEvent: fossil collection and rollback must not keep
// a dropped event's sent or save slice reachable through the backing array.
func vacatedClean(sc *Scheduler) bool {
	for _, pe := range sc.processed[len(sc.processed):cap(sc.processed)] {
		if pe.ev != (Event{}) || pe.sent != nil || pe.save != nil || pe.logStart != 0 {
			return false
		}
	}
	return true
}

func TestVacatedProcessedSlotsAreZeroed(t *testing.T) {
	for _, tc := range []struct {
		name string
		sim  *Sim
	}{
		{"lvm-lazy", buildLazy(t, true, 200)},
		{"lvm-aggressive", buildLazy(t, false, 200)},
		{"copy", buildSim(t, 3, SaverCopy, 150)},
	} {
		compacted := 0
		for tc.sim.RunSteps(PolicyRoundRobin, 1) == 1 {
			for _, sc := range tc.sim.scheds {
				if !vacatedClean(sc) {
					t.Fatalf("%s: scheduler %d, step %d: a slot past len(processed) = %d is not zeroed",
						tc.name, sc.id, tc.sim.Steps, len(sc.processed))
				}
				if len(sc.processed) < cap(sc.processed) {
					compacted++
				}
			}
		}
		for _, sc := range tc.sim.scheds {
			sc.cult(^VT(0))
			if len(sc.processed) != 0 || !vacatedClean(sc) {
				t.Fatalf("%s: scheduler %d after the final cult: len %d, vacated slots clean %v",
					tc.name, sc.id, len(sc.processed), vacatedClean(sc))
			}
		}
		if compacted == 0 {
			t.Fatalf("%s: no step ran with vacated slots; the check proved nothing", tc.name)
		}
	}
}

// TestSchedulerStatsPinned pins TotalStats for the configurations the
// property tests run, at the values the scheduler produced before its
// bookkeeping was made allocation-light (processed compacted in place,
// sends collected in a scheduler-owned buffer). Host representation must
// not move a single rollback, anti-message or replayed record.
func TestSchedulerStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Sim
		pol   Policy
		want  SchedStats
	}{
		{"lvm-3-rr", func() *Sim { return buildSim(t, 3, SaverLVM, 150) }, PolicyRoundRobin,
			SchedStats{Events: 477, Rollbacks: 44, RolledBack: 72, AntisSent: 72, Annihilated: 72, Replayed: 356, CULTRecords: 1620}},
		{"copy-3-rr", func() *Sim { return buildSim(t, 3, SaverCopy, 150) }, PolicyRoundRobin,
			SchedStats{Events: 477, Rollbacks: 44, RolledBack: 72, AntisSent: 72, Annihilated: 72}},
		{"lvm-3-least", func() *Sim { return buildSim(t, 3, SaverLVM, 150) }, PolicyLeastCycles,
			SchedStats{Events: 477, Rollbacks: 45, RolledBack: 72, AntisSent: 72, Annihilated: 72, Replayed: 384, CULTRecords: 1620}},
		{"lvm-1-global", func() *Sim { return buildSim(t, 1, SaverLVM, 150) }, PolicyGlobalOrder,
			SchedStats{Events: 405, CULTRecords: 1620}},
		{"lazy-rr", func() *Sim { return buildLazy(t, true, 200) }, PolicyRoundRobin,
			SchedStats{Events: 625, Rollbacks: 53, RolledBack: 88, AntisSent: 9, Annihilated: 9, Replayed: 416, CULTRecords: 2148, LazyKept: 77}},
		{"aggressive-rr", func() *Sim { return buildLazy(t, false, 200) }, PolicyRoundRobin,
			SchedStats{Events: 622, Rollbacks: 54, RolledBack: 85, AntisSent: 84, Annihilated: 84, Replayed: 436, CULTRecords: 2148}},
		{"lvm-4-least", func() *Sim { return buildSimN(t, 4, SaverLVM, 120, 8) }, PolicyLeastCycles,
			SchedStats{Events: 339, Rollbacks: 45, RolledBack: 57, AntisSent: 57, Annihilated: 57, Replayed: 392, CULTRecords: 1128}},
	} {
		sim := tc.build()
		sim.Run(tc.pol)
		if got := sim.TotalStats(); got != tc.want {
			t.Errorf("%s: TotalStats = %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
