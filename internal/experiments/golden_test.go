package experiments_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvm/internal/core"
	"lvm/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// sweepSmall regenerates every section of `lvmbench all`, in its order, at
// the reduced parameters bench/ uses for smoke (events 20, iters 100,
// txns 32, stride 9). Every number in it is a simulated cycle count or a
// ratio of two, so the text is a function of the modelled machine alone.
func sweepSmall() (string, error) {
	return sweep(experiments.Params{Events: 20, Iters: 100, Txns: 32, Stride: 9})
}

// sweep runs every Registry entry and writes each section's name and body;
// the notes lvmbench prints after some bodies are left out.
func sweep(p experiments.Params) (string, error) {
	var b strings.Builder
	for _, e := range experiments.Registry {
		s, err := e.Run(p)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(&b, "=== %s ===\n%s\n", e.Name, s.Body)
	}
	return b.String(), nil
}

// TestSweepGolden puts the paper's currency into tier-1: the simulated
// cycles behind every table, figure and ablation must not move unless a
// change means them to (then: go test ./internal/experiments -run
// TestSweepGolden -update, and say why in the PR). Frame numbering and
// page-mapping-table conflicts feed these numbers, so host-side rework of
// phys, hwlogger or vm that changes either shows up here.
func TestSweepGolden(t *testing.T) {
	got, err := sweepSmall()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_small.golden", got)
}

// storeLoopSteps is TestStoreLoopGolden's run length after Warm: long
// enough to cross many log truncations, rewinds and group commits.
const storeLoopSteps = 200_000

// storeLoopLine runs the sim_store workload for a fixed number of steps,
// drains the logger, and renders everything the modelled machine decided
// on one line: the clock, the bus, the logger's ledger and faults, and a
// digest of the data and log segments.
func storeLoopLine() (string, error) {
	sl, err := experiments.NewStoreLoop()
	if err != nil {
		return "", err
	}
	if err := sl.Warm(); err != nil {
		return "", err
	}
	for i := 0; i < storeLoopSteps; i++ {
		sl.Step()
	}
	if err := sl.Err(); err != nil {
		return "", err
	}
	sl.Sys.Sync()
	busy, acq, _ := sl.Sys.Machine().Bus.Stats()
	c := sl.Sys.MetricsSnapshot().Counters
	data, log := sl.Segments()
	digest := func(s *core.Segment) uint64 {
		h := fnv.New64a()
		h.Write(s.RawRead(0, s.NumPages()*core.PageSize))
		return h.Sum64()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d bus_busy=%d bus_acquisitions=%d", sl.Sys.Elapsed(), busy, acq)
	for _, name := range []string{
		"hwlogger.records_dmaed", "hwlogger.records_absorbed", "hwlogger.group_commits",
		"hwlogger.logging_faults_pmt", "hwlogger.logging_faults_log_addr", "vm.logging_faults",
		"vm.log_rewinds", "hwlogger.fifo_high_water",
	} {
		fmt.Fprintf(&b, " %s=%d", name, c[name])
	}
	fmt.Fprintf(&b, " data_fnv=%016x log_fnv=%016x\n", digest(data), digest(log))
	return b.String(), nil
}

// TestStoreLoopGolden pins sim_store's simulated results in tier-1: the
// host-speed work on the store path (machine, vm, phys, hwlogger,
// logcore, logrec) must leave every cycle, counter and byte of this run
// where it was.
func TestStoreLoopGolden(t *testing.T) {
	got, err := storeLoopLine()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "store_loop.golden", got)
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("run differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("run differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
}

// BenchmarkSweepPass is one `lvmbench all` pass at its default parameters
// (what bench/'s sim_sweep times: both Figures 11 and 12 run the Figure 11
// sweep), for -benchmem and -memprofile:
//
//	go test -run '^$' -bench SweepPass -benchmem ./internal/experiments
func BenchmarkSweepPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(experiments.DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}
