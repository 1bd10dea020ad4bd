// Command bench is the repository's end-to-end and per-layer benchmark:
// six seeded workloads over the simulator, the lvmd commit path,
// replication and restart recovery, each checked for correct output.
// bench/README.md is the catalogue; BENCHMARK.json declares it.
//
//	sh bench/run.sh --workload serve_commit --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runCtx is what every workload receives: the seed its inputs come
// from, how long to measure, and where it may write.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	dataDir string
	outDir  string
	// small shrinks every fixed-count part (warm-ups, preloads, probe
	// batches) for the smoke test; benchmark runs leave it false.
	small bool
	// loadStart is the host's load average when the process started.
	loadStart float64
}

// measuredSlices is how many slices of a timed section count; one more,
// ahead of them, is the discarded warm-up.
const measuredSlices = 5

// total is how long the workload measures.
func (c *runCtx) total() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// A traced run splits its time: the workload untraced for workShare, the
// same with a span around every op for workShare (the difference is the
// tracing overhead), and the rest on one-layer-at-a-time probes.
const workShare = 0.3

func (c *runCtx) probeBudget() time.Duration {
	return time.Duration(float64(c.total()) * (1 - 2*workShare))
}

// timed is what one workload's timed section produced: untraced always,
// traced too in a traced run.
type timed struct {
	plain, traced latencySummary
	ops           int // both phases
	tr            *tracer
}

// runTimed runs a sequential workload's timed section: once for the whole
// time, or, in a traced run, untraced and then traced for workShare each.
// phase returns its summary and how many ops it ran.
func (c *runCtx) runTimed(spanCap int, phase func(total time.Duration, tr *tracer) (latencySummary, int, error)) (timed, error) {
	var t timed
	var err error
	if !c.trace {
		t.plain, t.ops, err = phase(c.total(), nil)
		return t, err
	}
	part := time.Duration(float64(c.total()) * workShare)
	if t.plain, t.ops, err = phase(part, nil); err != nil {
		return t, err
	}
	t.tr = newTracer(time.Now(), spanCap)
	var n int
	t.traced, n, err = phase(part, t.tr)
	t.ops += n
	return t, err
}

// count scales a fixed amount of work down for the smoke test.
func (c *runCtx) count(n int) int {
	if c.small {
		if n /= 50; n < 2 {
			n = 2
		}
	}
	return n
}

// workDir makes a fresh directory under the data dir.
func (c *runCtx) workDir(name string) (string, error) {
	dir := filepath.Join(c.dataDir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	return dir, os.MkdirAll(dir, 0o755)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Slice quartiles and sample count, for metrics measured per slice
	// (the result file keeps them; the result line does not).
	Q1 *float64 `json:"q1,omitempty"`
	Q3 *float64 `json:"q3,omitempty"`
	N  int      `json:"n,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Info      map[string]string      `json:"info,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult starts a result holding every metric the mode must report:
// the end-to-end set untraced, the per-layer set traced. Per-layer
// metrics a workload does not exercise stay 0.
func newResult(c *runCtx, workload string) *result {
	r := &result{Workload: workload, Seed: c.seed, Seconds: c.seconds,
		Metrics: map[string]metricValue{}, Info: map[string]string{}}
	defs := endToEnd
	if c.trace {
		r.Trace = 1
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	r.set("host.loadavg_start", c.loadStart)
	return r
}

// set stores a metric the result's mode reports and ignores the rest, so
// a workload can state everything it measured in either mode.
func (r *result) set(name string, v float64) {
	if m, ok := r.Metrics[name]; ok {
		m.Value = v
		r.Metrics[name] = m
	}
}

func (r *result) setDist(name string, d dist) {
	if m, ok := r.Metrics[name]; ok {
		q1, q3 := d.Q1, d.Q3
		m.Value, m.Q1, m.Q3, m.N = d.Median, &q1, &q3, d.N
		r.Metrics[name] = m
	}
}

func (r *result) finish(v *verdict) {
	r.Attempted, r.Failed, r.Notes = v.attempted, v.failed, v.notes
	r.Correct = v.failed == 0 && v.attempted > 0
}

// resultLine is the contract's last line of standard output.
func (r *result) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, m := range r.Metrics {
		out.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// resultFile is what -out and the default output directory hold.
type resultFile struct {
	Env     hostEnv   `json:"env"`
	Results []*result `json:"results"`
}

func (r *result) print(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, k, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, n)
	}
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run (all = every workload, one after another)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		dataDir  = flag.String("datadir", filepath.Join(".bench_build", "data"), "where server data directories are made")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "where result and trace files are written")
		out      = flag.String("out", "", "result file (default <outdir>/result-<workload>-t<trace>-s<seed>.json)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json (each may be a comma-separated list of runs)")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it")
		golden   = flag.String("update-golden", "", "write the sweep's output at default parameters to this file (bench/golden/sweep.txt) and exit")
	)
	flag.Parse()
	if *desc {
		fmt.Print(describe())
		return
	}
	if *golden != "" {
		out, err := sweepOnce(sweepDefault)
		if err == nil {
			err = os.WriteFile(*golden, []byte(out.text), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, dataDir: *dataDir, outDir: *outDir,
		loadStart: loadAvg()}
	if err := os.MkdirAll(ctx.dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	file := resultFile{Env: readHostEnv(ctx)}
	ok := true
	for _, w := range workloads {
		if *workload != "all" && *workload != w.name {
			continue
		}
		res, err := w.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		file.Results = append(file.Results, res)
		res.print(os.Stdout)
		ok = ok && res.Correct
	}
	if len(file.Results) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = filepath.Join(ctx.outDir, fmt.Sprintf("result-%s-t%d-s%d.json", *workload, *trace, *seed))
	}
	if err := writeResultFile(path, &file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, res := range file.Results {
		fmt.Println(res.resultLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func writeResultFile(path string, f *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
