// Command lvmbench regenerates every table and figure of the paper's
// evaluation (Cheriton & Duda, "Logged Virtual Memory", SOSP 1995) on the
// simulated ParaDiGM machine, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	lvmbench [flags] <experiment>...
//
// The experiments are experiments.Registry's entries, in order; all runs
// every one of them. stats dumps the metrics snapshot and crashtest runs
// the fault-injection matrix. Run with no arguments for the list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"lvm/internal/crashtest"
	"lvm/internal/experiments"
	"lvm/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 2 for a bad
// flag, no experiment or an unknown one (checked before anything runs), 1
// for an experiment that fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lvmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p experiments.Params
	d := experiments.DefaultParams
	fs.IntVar(&p.Events, "events", d.Events, "events per point for fig7/fig8")
	fs.IntVar(&p.Iters, "iters", d.Iters, "iterations per point for fig10-12")
	fs.IntVar(&p.Txns, "txns", d.Txns, "TPC-A transactions for table3")
	fs.IntVar(&p.Stride, "stride", d.Stride, "compute-cycle stride for fig11/fig12 (1 = full resolution)")
	csv := fs.Bool("csv", false, "emit comma-separated values instead of text tables")
	seeds := fs.Int("seeds", 8, "seeds per fault template for crashtest")
	short := fs.Bool("short", false, "shrink the crashtest workloads (CI smoke)")
	parallel := fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential); host-side only, results are identical at any setting")

	commands := slices.Concat(experiments.Registry, []experiments.Entry{
		{Name: "stats", Banner: "Simulator counter snapshot (logged-store workload)", Run: func(p experiments.Params) (experiments.Section, error) {
			r, err := experiments.Stats(p.Iters)
			if err != nil {
				return experiments.Section{}, err
			}
			return experiments.Section{Body: experiments.FormatStats(r)}, nil
		}},
		{Name: "crashtest", Banner: "Crash-recovery fault matrix (seeded, deterministic)", Run: func(experiments.Params) (experiments.Section, error) {
			ok, err := crashtest.Run(crashtest.Options{Seeds: *seeds, Short: *short}, stdout)
			if err == nil && !ok {
				err = fmt.Errorf("crash-recovery matrix failed (see report above)")
			}
			return experiments.Section{}, err
		}},
	})
	fs.Usage = func() {
		fmt.Fprint(stderr, "usage: lvmbench [flags] <experiment>...\n\nExperiments (each prints its banner):\n")
		for _, e := range commands {
			fmt.Fprintf(stderr, "  %-21s %s\n", e.Name, e.Banner)
		}
		fmt.Fprintf(stderr, "  %-21s every experiment above except stats and crashtest\n\nFlags:\n", "all")
		fs.PrintDefaults()
	}

	// Accept flags after the experiment names too (`lvmbench crashtest
	// -seeds 2 -short`), the way subcommand-style CLIs are invoked; the
	// parser stops at the first non-flag argument.
	var names []string
	for {
		if err := fs.Parse(args); err == flag.ErrHelp {
			return 0
		} else if err != nil {
			return 2
		}
		if args = fs.Args(); len(args) == 0 {
			break
		}
		names, args = append(names, args[0]), args[1:]
	}
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	var todo []experiments.Entry
	for _, name := range names {
		if name == "all" {
			todo = append(todo, experiments.Registry...)
			continue
		}
		i := slices.IndexFunc(commands, func(e experiments.Entry) bool { return e.Name == name })
		if i < 0 {
			fmt.Fprintf(stderr, "lvmbench: unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
		todo = append(todo, commands[i])
	}

	experiments.OutputCSV = *csv
	if *parallel > 0 {
		sim.SetWorkers(*parallel)
	}
	for _, e := range todo {
		fmt.Fprintf(stdout, "\n=== %s ===\n\n", e.Banner)
		s, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(stderr, "lvmbench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprint(stdout, s.Body+s.Notes)
	}
	return 0
}
