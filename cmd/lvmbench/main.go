// Command lvmbench regenerates every table and figure of the paper's
// evaluation (Cheriton & Duda, "Logged Virtual Memory", SOSP 1995) on the
// simulated ParaDiGM machine, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	lvmbench [flags] <experiment>...
//	lvmbench all
//
// Experiments: table2, table3, fig7, fig8, fig9, fig10, fig11, fig12,
// ablation-logger, ablation-onchip, ablation-consistency,
// ablation-setrange, ablation-checkpoint, extension-parallel and
// extension-oodb; all runs every one of them. stats dumps the metrics
// snapshot and crashtest runs the fault-injection matrix.
package main

import (
	"flag"
	"fmt"
	"os"

	"lvm/internal/experiments"
	"lvm/internal/sim"
)

var (
	events   = flag.Int("events", 300, "events per point for fig7/fig8")
	iters    = flag.Int("iters", 2000, "iterations per point for fig10-12")
	txns     = flag.Int("txns", 400, "TPC-A transactions for table3")
	stride   = flag.Int("stride", 3, "compute-cycle stride for fig11/fig12 (1 = full resolution)")
	csv      = flag.Bool("csv", false, "emit comma-separated values instead of text tables")
	seeds    = flag.Int("seeds", 8, "seeds per fault template for crashtest")
	short    = flag.Bool("short", false, "shrink the crashtest workloads (CI smoke)")
	parallel = flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential); host-side only, results are identical at any setting")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	// Accept flags after the experiment names too (`lvmbench crashtest
	// -seeds 2 -short`), the way subcommand-style CLIs are invoked; the
	// stdlib parser stops at the first non-flag argument.
	args := flag.Args()
	var names []string
	for len(args) > 0 {
		if len(args[0]) > 1 && args[0][0] == '-' {
			flag.CommandLine.Parse(args)
			args = flag.Args()
			continue
		}
		names = append(names, args[0])
		args = args[1:]
	}
	experiments.OutputCSV = *csv
	if *parallel > 0 {
		sim.SetWorkers(*parallel)
	}
	if len(names) == 0 {
		usage()
		os.Exit(2)
	}
	args = names
	if len(args) == 1 && args[0] == "all" {
		args = []string{
			"table2", "table3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
			"ablation-logger", "ablation-onchip", "ablation-consistency",
			"ablation-setrange", "ablation-checkpoint", "extension-parallel", "extension-oodb",
		}
	}
	for _, name := range args {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "lvmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: lvmbench [flags] <experiment>...

Experiments (paper table/figure each regenerates):
  table2                Table 2  — basic machine operations
  table3                Table 3  — RVM vs RLVM (single write, TPC-A)
  fig7                  Figure 7 — LVM vs copy-based checkpointing vs c
  fig8                  Figure 8 — speedup vs fraction of object written
  fig9                  Figure 9 — resetDeferredCopy() vs bcopy
  fig10                 Figure 10 — CPU cost of logged writes
  fig11                 Figure 11 — total cost incl. overload penalty
  fig12                 Figure 12 — overload events per 1000 iterations
  ablation-logger       prototype bus logger vs on-chip (Section 4.6, bare machine)
  ablation-onchip       the same comparison through the full VM stack
  ablation-consistency  log-based consistency vs Munin twin/diff
  ablation-setrange     RVM set_range amortization vs RLVM
  ablation-checkpoint   deferred copy vs Li/Appel write-protect
  extension-parallel    complete 4-scheduler optimistic runs (rollbacks included)
  extension-oodb        OODB transaction-length sweep (RLVM advantage vs txn size)
  stats                 dump the metrics counter/histogram/trace snapshot
  crashtest             seeded fault-injection + crash-recovery matrix (-seeds, -short)
  all                   everything above (except stats and crashtest)

Flags:
`)
	flag.PrintDefaults()
}

func banner(s string) { fmt.Printf("\n=== %s ===\n\n", s) }

func run(name string) error {
	switch name {
	case "table2":
		banner("Table 2: Basic Machine Performance (cycles)")
		fmt.Print(experiments.FormatTable2(experiments.Table2()))
	case "table3":
		banner("Table 3: Performance of RVM with and without LVM")
		r, err := experiments.Table3(*txns)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable3(r))
	case "fig7":
		banner("Figure 7: LVM versus Copy-based Checkpointing (speedup vs compute cycles)")
		pts, err := experiments.Fig7(*events)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig7(pts))
	case "fig8":
		banner("Figure 8: Effect of Number of Writes on LVM Performance")
		pts, err := experiments.Fig8(*events)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig8(pts))
	case "fig9":
		banner("Figure 9: Execution time of resetDeferredCopy() vs bcopy")
		pts, err := experiments.Fig9()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig9(pts))
		for _, size := range experiments.Fig9Sizes {
			fmt.Printf("crossover (%d KB segment): reset wins below %.0f%% dirty (paper: ~67%%)\n",
				size>>10, 100*experiments.Crossover(pts, size))
		}
	case "fig10":
		banner("Figure 10: CPU Cost of Logged Writes (cycles per write)")
		pts, err := experiments.Fig10(*iters)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig10(pts))
	case "fig11":
		banner("Figure 11: Total Cost of Logged Write (cycles per iteration)")
		pts, err := experiments.Fig11(experiments.Fig11ComputeSweep(*stride), *iters)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig11(pts))
	case "fig12":
		banner("Figure 12: Overload Events (per 1000 iterations)")
		pts, err := experiments.Fig11(experiments.Fig11ComputeSweep(*stride), *iters)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig12(pts))
	case "ablation-logger":
		banner("Ablation: prototype bus logger vs on-chip logger (cycles per logged write)")
		pts := experiments.LoggerModels([]uint64{0, 10, 25, 50, 100, 200, 400, 800}, *iters)
		fmt.Print(experiments.FormatLoggerModels(pts))
	case "ablation-onchip":
		banner("Ablation: Section 4.6 kernel vs prototype, full VM stack (cycles per iteration, l=1)")
		pts, err := experiments.FullStackOnChip([]uint64{0, 10, 25, 50, 100, 200, 400, 800}, *iters)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFullStack(pts))
	case "ablation-consistency":
		banner("Ablation: log-based consistency vs Munin twin/diff (200 writes)")
		pts, err := experiments.Consistency(200)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatConsistency(pts))
	case "ablation-setrange":
		banner("Ablation: set_range amortization (64 writes, cycles per recoverable write)")
		r, err := experiments.SetRangeAblation(64)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSetRange(r))
	case "ablation-checkpoint":
		banner("Ablation: deferred copy vs Li/Appel write-protect checkpointing (64-page segment)")
		pts, err := experiments.CheckpointStyles(64, []int{1, 2, 4, 8, 16, 32, 64})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCheckpointStyles(pts))
	case "extension-parallel":
		banner("Extension: complete optimistic runs, 4 schedulers, rollbacks included")
		pts, err := experiments.ParallelSim(4, 400, true)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatParallelSim(pts))
		fmt.Println("(both savers must compute the identical checksum; LVM pays more per")
		fmt.Println(" rollback — reset + roll-forward — but nothing per forward event)")
	case "stats":
		banner("Simulator counter snapshot (logged-store workload)")
		r, err := experiments.Stats(*iters)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatStats(r))
	case "crashtest":
		banner("Crash-recovery fault matrix (seeded, deterministic)")
		return runCrashtest(*seeds, *short)
	case "extension-oodb":
		banner("Extension: object database, RLVM speedup vs transaction length (Section 4.2 prediction)")
		pts, err := experiments.OODB(nil, *txns/8)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatOODB(pts))
	default:
		return fmt.Errorf("unknown experiment %q (run with no arguments for the list)", name)
	}
	return nil
}
