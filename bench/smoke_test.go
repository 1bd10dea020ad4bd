package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != describe() {
		t.Fatal("BENCHMARK.json is not what the metric tables describe: regenerate it with `bench -describe`")
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONWithinTheContract checks the declared names, units
// and counts against the limits the benchmark contract sets.
func TestBenchmarkJSONWithinTheContract(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, w := range doc.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range doc.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range doc.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmokeEveryWorkloadBothModes runs all six workloads at tiny scale,
// untraced and traced, and checks that each reports exactly the metrics
// BENCHMARK.json declares, with their units, and passes its own checks.
func TestSmokeEveryWorkloadBothModes(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, doc.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			c := &runCtx{seed: 1, seconds: 0.12, trace: traced, small: true,
				dataDir: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out")}
			res, err := w.run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", w.name, traced, res.Failed, res.Attempted, res.Notes)
			}
			want := map[string]string{}
			if traced {
				for _, m := range doc.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range doc.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			for n, u := range want {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != u {
					t.Errorf("%s traced=%v: metric %s reported as %+v, declared in %s", w.name, traced, n, m, u)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, n, m.Value)
				}
			}
			if traced {
				if q := res.Metrics["lvmd.shard.queue_wire_us"].Value; q < 0 {
					t.Errorf("%s: queue_wire_us residual is %v, below zero", w.name, q)
				}
				if _, err := os.Stat(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if line := res.resultLine(); !json.Valid([]byte(line)) {
				t.Errorf("%s: result line is not JSON: %s", w.name, line)
			}
		}
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "data")); len(left) != 0 {
		t.Errorf("%d data directories left behind", len(left))
	}
}

// TestExactMetricsRepeat runs the workloads with exact metrics under two
// seeds: the seed changes the op stream, never the simulated machine's
// numbers or the bytes logged per byte stored.
func TestExactMetricsRepeat(t *testing.T) {
	dir := t.TempDir()
	exact := map[string][]string{
		"sim_store":    {"machine.sim_cycles_per_store", "machine.sim_cycles", "bus.busy_share", "hwlogger.records_per_group_commit"},
		"sim_sweep":    {"experiments.paper_err_max_pct", "experiments.paper_tables_match", "tlblog.stall_events"},
		"serve_commit": {"lvmd.tail.bytes_per_user_byte"},
		"serve_mixed":  {"lvmd.tail.bytes_per_user_byte"},
	}
	for _, w := range workloads {
		names, ok := exact[w.name]
		if !ok {
			continue
		}
		var runs []*result
		for seed := uint64(1); seed <= 2; seed++ {
			c := &runCtx{seed: seed, seconds: 0.12, trace: true, small: true,
				dataDir: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out")}
			res, err := w.run(c)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
		}
		for _, n := range names {
			a, b := runs[0].Metrics[n].Value, runs[1].Metrics[n].Value
			if a != b || a == 0 {
				t.Errorf("%s: %s reads %v under seed 1 and %v under seed 2", w.name, n, a, b)
			}
		}
		if d := "stream_digest"; runs[0].Info[d] != "" && runs[0].Info[d] == runs[1].Info[d] {
			t.Errorf("%s: seeds 1 and 2 drove the same op stream", w.name)
		}
	}
}
