package experiments

import "fmt"

// Params are the knobs lvmbench exposes. Every other argument of an
// experiment is fixed in its Registry entry.
type Params struct {
	Events int // events per point for fig7/fig8
	Iters  int // iterations per point for fig10-12 and the logger ablations
	Txns   int // TPC-A transactions for table3 (extension-oodb runs Txns/8)
	Stride int // compute-cycle stride for fig11/fig12 (1 = full resolution)
}

// DefaultParams are lvmbench's flag defaults.
var DefaultParams = Params{Events: 300, Iters: 2000, Txns: 400, Stride: 3}

// Section is one experiment's output: Body is its table (text or CSV,
// per OutputCSV) and Notes the commentary lvmbench prints after it,
// which the sweep golden leaves out.
type Section struct{ Body, Notes string }

// Entry is one experiment: the name lvmbench takes, the banner it prints
// above the section, and the run at given parameters.
type Entry struct {
	Name, Banner string
	Run          func(Params) (Section, error)
}

// loggerGrain is the compute sweep of both logger ablations.
var loggerGrain = []uint64{0, 10, 25, 50, 100, 200, 400, 800}

// Registry is the paper's evaluation (Section 4) in `lvmbench all`'s
// order: Tables 2-3, Figures 7-12, the ablations DESIGN.md calls out and
// two extensions. Figures 11 and 12 each run the Figure 11 sweep.
var Registry = []Entry{
	{"table2", "Table 2: Basic Machine Performance (cycles)", func(Params) (Section, error) {
		return Section{Body: FormatTable2(Table2())}, nil
	}},
	{"table3", "Table 3: Performance of RVM with and without LVM", func(p Params) (Section, error) {
		return body(FormatTable3)(Table3(p.Txns))
	}},
	{"fig7", "Figure 7: LVM versus Copy-based Checkpointing (speedup vs compute cycles)", func(p Params) (Section, error) {
		return body(FormatFig7)(Fig7(p.Events))
	}},
	{"fig8", "Figure 8: Effect of Number of Writes on LVM Performance", func(p Params) (Section, error) {
		return body(FormatFig8)(Fig8(p.Events))
	}},
	{"fig9", "Figure 9: Execution time of resetDeferredCopy() vs bcopy", func(Params) (Section, error) {
		pts, err := Fig9()
		if err != nil {
			return Section{}, err
		}
		s := Section{Body: FormatFig9(pts)}
		for _, size := range Fig9Sizes {
			s.Notes += fmt.Sprintf("crossover (%d KB segment): reset wins below %.0f%% dirty (paper: ~67%%)\n",
				size>>10, 100*Crossover(pts, size))
		}
		return s, nil
	}},
	{"fig10", "Figure 10: CPU Cost of Logged Writes (cycles per write)", func(p Params) (Section, error) {
		return body(FormatFig10)(Fig10(p.Iters))
	}},
	{"fig11", "Figure 11: Total Cost of Logged Write (cycles per iteration)", func(p Params) (Section, error) {
		return body(FormatFig11)(Fig11(Fig11ComputeSweep(p.Stride), p.Iters))
	}},
	{"fig12", "Figure 12: Overload Events (per 1000 iterations)", func(p Params) (Section, error) {
		return body(FormatFig12)(Fig11(Fig11ComputeSweep(p.Stride), p.Iters))
	}},
	{"ablation-logger", "Ablation: prototype bus logger vs on-chip logger (cycles per logged write)", func(p Params) (Section, error) {
		return Section{Body: FormatLoggerModels(LoggerModels(loggerGrain, p.Iters))}, nil
	}},
	{"ablation-onchip", "Ablation: Section 4.6 kernel vs prototype, full VM stack (cycles per iteration, l=1)", func(p Params) (Section, error) {
		return body(FormatFullStack)(FullStackOnChip(loggerGrain, p.Iters))
	}},
	{"ablation-consistency", "Ablation: log-based consistency vs Munin twin/diff (200 writes)", func(Params) (Section, error) {
		return body(FormatConsistency)(Consistency(200))
	}},
	{"ablation-setrange", "Ablation: set_range amortization (64 writes, cycles per recoverable write)", func(Params) (Section, error) {
		return body(FormatSetRange)(SetRangeAblation(64))
	}},
	{"ablation-checkpoint", "Ablation: deferred copy vs Li/Appel write-protect checkpointing (64-page segment)", func(Params) (Section, error) {
		return body(FormatCheckpointStyles)(CheckpointStyles(64, []int{1, 2, 4, 8, 16, 32, 64}))
	}},
	{"extension-parallel", "Extension: complete optimistic runs, 4 schedulers, rollbacks included", func(Params) (Section, error) {
		s, err := body(FormatParallelSim)(ParallelSim(4, 400, true))
		s.Notes = "(both savers must compute the identical checksum; LVM pays more per\n" +
			" rollback — reset + roll-forward — but nothing per forward event)\n"
		return s, err
	}},
	{"extension-oodb", "Extension: object database, RLVM speedup vs transaction length (Section 4.2 prediction)", func(p Params) (Section, error) {
		return body(FormatOODB)(OODB(nil, p.Txns/8))
	}},
}

// body turns an experiment's Format function into the tail of a Run:
// body(FormatX)(X(...)) is X's section, or X's error.
func body[T any](format func(T) string) func(T, error) (Section, error) {
	return func(v T, err error) (Section, error) {
		if err != nil {
			return Section{}, err
		}
		return Section{Body: format(v)}, nil
	}
}
