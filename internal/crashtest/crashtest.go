// Package crashtest runs a seeded matrix of fault plans (internal/fault)
// over logged-segment and RVM/RLVM TPC-A workloads and verdicts each run
// with the recovery manager and shadow checker (internal/recovery).
//
// Every plan is executed twice and the two report lines are
// byte-compared: the whole stack — workload, injector, crash, replay,
// verdict — must be deterministic per seed. A run passes when recovery
// either fully reconstructs the reference state (shadow diff empty,
// possibly modulo the one in-doubt transaction that was mid-commit at
// the crash) or degrades gracefully: the quarantined log tail starts at
// injected damage and every residual mismatch byte lies inside the
// injector's ground-truth damage ranges.
package crashtest

import (
	"fmt"
	"io"
	"strings"

	"lvm/internal/core"
	"lvm/internal/fault"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
	"lvm/internal/rlvm"
	"lvm/internal/rvm"
	"lvm/internal/tpca"
)

// Options configures a matrix run.
type Options struct {
	// Seeds is the number of seeds per template (default 8).
	Seeds int
	// Short shrinks the workloads (CI smoke).
	Short bool
}

// Every log and compact scenario runs with the FIFO write-absorption
// stage and group commit enabled: the whole matrix continuously proves
// that coalescing repeated stores and batching DMA drains can never
// change a recovery verdict. Same configuration as the throughput
// workload (internal/experiments).
const (
	ctAbsorbWindow  = 8
	ctGroupSize     = 8
	ctGroupDeadline = 1024
)

// markerLimit is the marker area of the log, compact and failover
// workloads: word 0 carries the begin and commit markers.
const markerLimit = 16

// template is one row of the fault matrix.
type template struct {
	name string
	run  func(t template, plan fault.Plan, short bool) (outcome, uint64)
	// maxBatch bounds the stores per transaction of the log workload.
	maxBatch int
	// hotset > 0 draws store offsets from a seeded pool of that many hot
	// addresses instead of the whole segment, so repeated stores land in
	// the absorption window and actually coalesce.
	hotset int
	// needsDry: the plan derives its crash cycle from a fault-free dry
	// run of the same seeded workload.
	needsDry bool
	plan     func(seed uint64, dryElapsed uint64) fault.Plan
	// armExtra, when set, arms scenario-level triggers the generic plan
	// fields cannot reach — e.g. a compact.Manager FailHook that crashes
	// inside the WAL-reset-to-log-truncation window. Called after
	// Injector.Arm with the engine under test.
	armExtra func(in *fault.Injector, eng engine, plan fault.Plan)
}

// retiredRow is the table position of a deleted template. A plan's
// workload seed derives from its row's position (runPlan), so the rows
// after it keep the index they had while it existed: deleting a row must
// not rewrite the report lines of every row behind it.
const retiredRow = 20

// seedIndex is row ti's position in the table as it stood before
// retiredRow was deleted.
func seedIndex(ti int) int {
	if ti >= retiredRow {
		return ti + 1
	}
	return ti
}

// noFaults is the plan of the fault-free rows.
func noFaults(seed, dry uint64) fault.Plan { return fault.Plan{} }

// seedPhase is the failover rows' plan: CrashAtCycle carries the raw
// seed, from which the scenario picks the handshake phase to kill.
func seedPhase(seed, dry uint64) fault.Plan { return fault.Plan{CrashAtCycle: seed} }

// crashMidRun crashes at a seeded 20–80 % of the dry run's cycles.
func crashMidRun(seed, dry uint64) fault.Plan {
	return fault.Plan{CrashAtCycle: dry * (20 + seed*7%61) / 100}
}

// diskTransient fails bursts of two disk operations at a seeded period.
func diskTransient(seed, dry uint64) fault.Plan {
	return fault.Plan{DiskFailEveryN: 40 + int(seed%20), DiskFailBurst: 2}
}

func templates() []template {
	return []template{
		{name: "log/clean", run: runLog, maxBatch: 24, plan: noFaults},
		{name: "log/crash-cycle", run: runLog, maxBatch: 24, needsDry: true, plan: crashMidRun},
		{name: "log/crash-fault", run: runLog, maxBatch: 24,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{CrashAtFault: 1 + int(seed%4)}
			}},
		{name: "log/crash-overload", run: runLog, maxBatch: 200,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{OverloadThreshold: 24, CrashAtOverload: 1 + int(seed%4)}
			}},
		{name: "log/drop", run: runLog, maxBatch: 24, needsDry: true,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{DropEveryN: 61 + int(seed%7)*10, CrashAtCycle: dry * 7 / 10}
			}},
		{name: "log/corrupt", run: runLog, maxBatch: 24,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{CorruptEveryN: 97 + int(seed%5)*16}
			}},
		{name: "log/truncate", run: runLog, maxBatch: 24, needsDry: true,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{
					CrashAtCycle:      dry * (60 + seed*11%30) / 100,
					TruncateTailBytes: 24 + uint32(seed*37%400),
				}
			}},
		{name: "log/storm", run: runLog, maxBatch: 256,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{OverloadThreshold: 8}
			}},
		// Crash inside the absorption window: a hot-address workload makes
		// repeated stores coalesce in the FIFO, and the cycle trigger dies
		// while dirty coalesced records are still waiting out the group
		// deadline. The injector's in-flight ledger captures the coalesced
		// FIFO entries at the moment of death, so it must explain exactly
		// the absorbed-but-unpersisted stores — and nothing else. The
		// fraction range starts at 58%: the first transaction's page-fault
		// storm (hot pages, marker page, first log page) eats the low half
		// of the short workload's cycle budget, and a crash in there lands
		// before the first commit — a degenerate empty-expectation pass
		// instead of a crash with coalesced records pending.
		{name: "log/absorb-window", run: runLog, maxBatch: 24, hotset: 6, needsDry: true,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{CrashAtCycle: dry * (58 + seed*17%38) / 100}
			}},
		{name: "rvm/crash-diskop", run: runTPCA,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{CrashAtDiskOp: 17 + int(seed%40)*7}
			}},
		{name: "rvm/disk-transient", run: runTPCA, plan: diskTransient},
		{name: "rlvm/crash-cycle", run: runTPCA, needsDry: true, plan: crashMidRun},
		{name: "rlvm/crash-overload", run: runTPCA,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{OverloadThreshold: 3 + int(seed%3), CrashAtOverload: 2 + int(seed%6)}
			}},
		{name: "rlvm/disk-transient", run: runTPCA, plan: diskTransient},
		// The regression row for the swallowed-TruncateLog bug: die inside
		// Truncate's WAL-reset-to-log-truncation window — the WAL is
		// already empty, the durable image already rolled forward, the LVM
		// log not yet cut. Committed state must recover exactly.
		{name: "rlvm/trunc-window", run: runTPCA, plan: noFaults,
			armExtra: func(in *fault.Injector, eng engine, plan fault.Plan) {
				e, isRLVM := eng.(rlvmEngine)
				if !isRLVM {
					return
				}
				target := 1 + int(plan.Seed%2)
				truncs := 0
				e.CompactManager().FailHook = func() error {
					truncs++
					if truncs == target {
						in.CrashNow("trunc-window")
					}
					return nil
				}
			}},
		// The daemon's ack-fence window: transactions applied to an lvmd
		// shard arena but not yet drained by the group-commit fence when
		// the kill lands. Acked state must recover exactly; the gap to the
		// recovered image must be an in-order prefix of the in-flight
		// ledger (see classifyPrefix).
		{name: "lvmd/kill-mid-commit", run: runLvmd, maxBatch: 12, needsDry: true,
			plan: func(seed, dry uint64) fault.Plan {
				return fault.Plan{CrashAtCycle: dry * (25 + seed*13%70) / 100}
			}},
		// Failover under fire: kill the promotion handshake at the phase
		// the seed selects (candidate- and coordinator-side crashes), then
		// resume it; no acked record may be lost and no moment may hold two
		// validating grants. CrashAtCycle carries the raw seed so eight
		// seeds sweep every phase (the scenario never arms an injector).
		{name: "failover/crash-during-promotion", run: runFailover, maxBatch: 8, plan: seedPhase},
		// Lease-driven failure detection: nobody signals anybody. The
		// primary dies with an unshipped tail, the manual lease clock runs
		// out, and the standby's monitor authorizes the promotion — still
		// killed and resumed at the phase the seed selects. Promotion must
		// refuse while the lease is current, and the resumed zombie must be
		// refused with ErrFenced and self-demote.
		{name: "failover/lease-expiry", run: runLeaseExpiry, maxBatch: 8, plan: seedPhase},
		// The pause/partition shape: the primary survives but cannot renew;
		// the standby promotes at zero loss and the healed primary's own
		// renewal, grant, and late heartbeat are all refused — exactly one
		// writable primary throughout.
		{name: "failover/partition-pause", run: runLeasePartition, maxBatch: 8, plan: seedPhase},
		// The true-partition shape: the primary's renewal loop stays
		// alive, only its messages die. The holder must demote on the
		// delivery-evidence rule no later than the standby's monitor
		// expires — at no step may a promoted standby and a renewing
		// primary coexist.
		{name: "failover/partition-drop", run: runLeaseDrop, maxBatch: 8, plan: seedPhase},
		{name: "compact/clean", run: runCompact, maxBatch: 24, plan: noFaults},
		{name: "compact/crash-diskop", run: runCompact, maxBatch: 24,
			plan: func(seed, dry uint64) fault.Plan {
				// 6 device ops per compaction cycle: the seeds land crashes
				// before the marker commit, mid-snapshot, and after it.
				return fault.Plan{CrashAtDiskOp: 1 + int(seed*5%28)}
			}},
		{name: "compact/crash-cycle", run: runCompact, maxBatch: 24, needsDry: true, plan: crashMidRun},
	}
}

// Run executes the matrix and writes one deterministic line per plan
// (plus a summary). ok is true when every plan passed and every plan's
// two executions produced byte-identical lines.
func Run(opts Options, w io.Writer) (bool, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 8
	}
	ts := templates()
	plans, passed, failed, nondet := 0, 0, 0, 0
	for ti, t := range ts {
		for seed := 0; seed < opts.Seeds; seed++ {
			plans++
			o1 := runPlan(t, seedIndex(ti), uint64(seed), opts.Short)
			o2 := runPlan(t, seedIndex(ti), uint64(seed), opts.Short)
			fmt.Fprintln(w, o1.line)
			if o1.line != o2.line {
				nondet++
				fmt.Fprintf(w, "NONDETERMINISTIC rerun: %s\n", o2.line)
			}
			if o1.ok && o2.ok {
				passed++
			} else {
				failed++
			}
		}
	}
	ok := failed == 0 && nondet == 0
	fmt.Fprintf(w, "crashtest: %d plans, %d passed, %d failed, %d nondeterministic\n",
		plans, passed, failed, nondet)
	return ok, nil
}

type outcome struct {
	line string
	ok   bool
}

type write struct {
	off, val uint32
}

// wordOff draws a word-aligned offset past the marker area of a
// size-byte segment.
func wordOff(wr *fault.RNG, size uint32) uint32 {
	return markerLimit + uint32(wr.Intn(int(size-markerLimit)/4))*4
}

// untilCrash runs a workload until it returns or the injector kills the
// machine, and returns the Crash it unwound with (nil if none). Any
// other panic propagates to runPlan.
func untilCrash(workload func()) (crash *fault.Crash) {
	defer func() {
		if r := recover(); r != nil {
			c, isCrash := r.(*fault.Crash)
			if !isCrash {
				panic(r)
			}
			crash = c
		}
	}()
	workload()
	return nil
}

// runPlan executes one (template, seed) cell: optional dry run, then the
// faulted run.
func runPlan(t template, ti int, seed uint64, short bool) (out outcome) {
	// The workload RNG is derived from Plan.Seed, so the dry run (zero
	// triggers, same Seed) replays the exact same workload. Every line,
	// failures included, names it: it is the seed that replays the plan.
	wseed := (uint64(ti)+1)*0x9E3779B97F4A7C15 ^ (seed+1)*0x85EBCA77C2B2AE63
	defer func() {
		// The binary must never die on a plan: anything but the
		// injector's Crash sentinel (handled inside the scenarios) is a
		// verdict, not a panic.
		if r := recover(); r != nil {
			out = outcome{line: fmt.Sprintf("plan=%s seed=%#x verdict=FAIL-panic err=%v", t.name, wseed, r), ok: false}
		}
	}()
	var dry uint64
	if t.needsDry {
		dryPlan := fault.Plan{Name: t.name + "/dry", Seed: wseed}
		var d outcome
		d, dry = runScenario(t, dryPlan, short)
		if !d.ok {
			return outcome{line: fmt.Sprintf("plan=%s seed=%#x verdict=FAIL-dry %s", t.name, wseed, d.line), ok: false}
		}
	}
	plan := t.plan(seed, dry)
	plan.Name = t.name
	plan.Seed = wseed
	out, _ = runScenario(t, plan, short)
	return out
}

// runScenario runs one execution of a plan. A setupError unwinding out
// of the template becomes the plan's FAIL-setup line.
func runScenario(t template, plan fault.Plan, short bool) (out outcome, elapsed uint64) {
	defer func() {
		if r := recover(); r != nil {
			se, isSetup := r.(setupError)
			if !isSetup {
				panic(r)
			}
			out = outcome{line: fmt.Sprintf("plan=%s seed=%#x verdict=FAIL-setup %s", plan.Name, plan.Seed, se.msg)}
		}
	}()
	return t.run(t, plan, short)
}

// setupError unwinds a scenario whose machine failed before it could be
// judged, the way the injector's Crash unwinds a killed workload. Setup
// runs on in-memory devices and transports of fixed size, so only a bug
// in the code under test (or a wall-clock wait outliving releaseWait)
// gets here.
type setupError struct{ msg string }

// setupFail unwinds the scenario with a setupError.
func setupFail(format string, a ...any) {
	panic(setupError{fmt.Sprintf(format, a...)})
}

// must unwinds the scenario with a setupError naming what failed when
// err is set.
func must(err error, what string) {
	if err != nil {
		setupFail("%s err=%v", what, err)
	}
}

// engine is the recoverable-memory manager the TPC-A workload drives
// (internal/tpca's private engine, plus SetRange): *rvm.Manager, or
// *rlvm.Manager as an rlvmEngine.
type engine interface {
	Begin() error
	RecoverableWrite32(va core.Addr, v uint32) error
	SetRange(va core.Addr, n uint32) error
	Commit() error
	Base() core.Addr
	Segment() *core.Segment
}

type rlvmEngine struct{ *rlvm.Manager }

func (rlvmEngine) SetRange(core.Addr, uint32) error { return nil } // logged writes need no ranges

// bootTPCA boots a system, process and manager of the given kind over
// disk; retry first wraps the disk with bounded retry, as recovery does.
func bootTPCA(kind string, size uint32, disk *ramdisk.Disk, retry bool) (*core.System, *core.Process, engine) {
	frames := int(size/core.PageSize) + 4096
	var sys *core.System
	if kind == "rvm" {
		sys = core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: frames})
	} else {
		sys = core.NewSystem(core.Config{NumCPUs: 1, MemFrames: frames + 8192})
	}
	p := sys.NewProcess(0, sys.NewAddressSpace())
	var d ramdisk.Device = disk
	what := "boot"
	if retry {
		d, what = recovery.NewRetryDisk(disk, nil, sys.DeviceShard()), "recovery"
	}
	if kind == "rvm" {
		m, err := rvm.New(sys, p, size, d, rvm.Options{})
		must(err, what)
		return sys, p, m
	}
	m, err := rlvm.New(sys, p, size, d, rlvm.Options{LogPages: 512})
	must(err, what)
	return sys, p, rlvmEngine{m}
}

// runTPCA drives the TPC-A debit-credit workload over RVM or RLVM with
// the plan armed, then recovers from the surviving ramdisk on a freshly
// booted system through a retry-wrapped device. The row's family names
// the engine: rvm/… or rlvm/….
func runTPCA(t template, plan fault.Plan, short bool) (outcome, uint64) {
	kind, _, _ := strings.Cut(t.name, "/")
	cfg := tpca.DefaultConfig()
	cfg.Txns = 120
	if short {
		cfg.Txns = 40
	}
	lay := tpca.NewLayout(cfg)
	markerAdj := uint32(0)
	if kind == "rlvm" {
		markerAdj = rlvm.MarkerBytes
	}
	disk := ramdisk.New()

	sys, p, eng := bootTPCA(kind, lay.Size, disk, false)

	in := fault.New(plan)
	if e, isRLVM := eng.(rlvmEngine); isRLVM {
		in.Arm(sys, disk, e.LogSegment(), e.Segment(), rlvm.MarkerBytes)
	} else {
		in.Arm(sys, disk, nil, nil, 0)
	}
	if t.armExtra != nil {
		t.armExtra(in, eng, plan)
	}

	shadow := recovery.NewShadow(lay.Size + markerAdj)
	var pending []write
	var stopErr error
	crash := untilCrash(func() {
		wr := fault.NewRNG(plan.Seed + 1)
		base := eng.Base()
		histSlot := 0
		for i := 0; i < cfg.Txns; i++ {
			b := wr.Intn(cfg.Branches)
			teller := b*cfg.TellersPerBranch + wr.Intn(cfg.TellersPerBranch)
			account := b*cfg.AccountsPerBranch + wr.Intn(cfg.AccountsPerBranch)
			delta := uint32(wr.Intn(1000) + 1)
			pending = pending[:0]
			if stopErr = eng.Begin(); stopErr != nil {
				return
			}
			update := func(off uint32) error {
				va := base + off
				p.Compute(tpca.LookupCycles)
				old := p.Load32(va)
				if err := eng.RecoverableWrite32(va, old+delta); err != nil {
					return err
				}
				pending = append(pending, write{off + markerAdj, old + delta})
				return nil
			}
			for _, off := range [...]uint32{
				lay.AccountOff + uint32(account)*lay.BalanceRecBytes,
				lay.TellerOff + uint32(teller)*lay.BalanceRecBytes,
				lay.BranchOff + uint32(b)*lay.BalanceRecBytes,
			} {
				if stopErr = update(off); stopErr != nil {
					return
				}
			}
			hOff := lay.HistoryOff + uint32(histSlot)*lay.HistoryRecBytes
			histSlot = (histSlot + 1) % cfg.HistorySlots
			p.Compute(tpca.LookupCycles)
			if stopErr = eng.SetRange(base+hOff, lay.HistoryRecBytes); stopErr != nil {
				return
			}
			hw := [4]uint32{uint32(account), uint32(teller)<<16 | uint32(b), delta, uint32(i)}
			for k, v := range hw {
				p.Store32(base+hOff+uint32(k*4), v)
				pending = append(pending, write{hOff + uint32(k*4) + markerAdj, v})
			}
			if stopErr = eng.Commit(); stopErr != nil {
				return
			}
			for _, wv := range pending {
				shadow.Write32(wv.off, wv.val)
			}
			pending = pending[:0]
		}
	})
	elapsed := sys.Elapsed()
	// Recovery: boot a fresh machine over the surviving disk, wrapped
	// with bounded retry so armed transient failures are absorbed.
	in.SetRecoveryMode(true)
	_, _, eng2 := bootTPCA(kind, lay.Size, disk, true)
	rep := in.Report()
	res := recovery.Result{QuarantinedFrom: recovery.NoQuarantine}
	verdict, diffs := classify(shadow, pending, eng2.Segment(), markerAdj, res, rep)
	return mkOutcome(t.name, plan, verdict, crash, stopErr, rep, res, diffs), elapsed
}

// classify turns (reference state, recovered state, injector ground
// truth) into a verdict. Passing verdicts: RECOVERED (exact match),
// RECOVERED-INDOUBT (exact modulo the one transaction in flight at the
// crash), DEGRADED* (mismatch fully accounted for by injected damage,
// with any quarantine starting at injected damage).
func classify(expected *recovery.Shadow, pending []write, seg *core.Segment, from uint32,
	res recovery.Result, rep *fault.Report) (string, int) {
	if res.Quarantined() && !rep.ExplainsQuarantine(res.QuarantinedFrom) {
		return "FAIL-quarantine", 0
	}
	diff := expected.Diff(seg, from)
	if len(diff) == 0 {
		if res.Quarantined() {
			return "DEGRADED-quarantine", 0
		}
		return "RECOVERED", 0
	}
	// In-doubt: the transaction mid-commit at the crash may have become
	// durable even though the workload never saw the commit succeed.
	e2 := expected.Clone()
	for _, wv := range pending {
		e2.Write32(wv.off, wv.val)
	}
	diff2 := e2.Diff(seg, from)
	if len(diff2) == 0 {
		return "RECOVERED-INDOUBT", 0
	}
	if explained(diff, rep) || explained(diff2, rep) {
		return "DEGRADED", len(diff)
	}
	if rep.AnyMarkerDamage() {
		// Damaged transaction bracketing: whole batches may be lost.
		return "DEGRADED-marker", len(diff)
	}
	return "FAIL", len(diff)
}

// explained reports whether every mismatching byte lies inside the
// injector's ground-truth damage ranges.
func explained(diff []recovery.DiffRange, rep *fault.Report) bool {
	for _, d := range diff {
		for off := d.Off; off < d.Off+d.Len; off++ {
			if !rep.Explains(off) {
				return false
			}
		}
	}
	return true
}

func passVerdict(v string) bool {
	switch v {
	case "RECOVERED", "RECOVERED-INDOUBT", "DEGRADED", "DEGRADED-quarantine", "DEGRADED-marker":
		return true
	}
	return false
}

// mkOutcome formats a recovery verdict's line. A workload stopped by a
// refused commit (stopErr) rather than a crash reports crash=commit-error.
func mkOutcome(name string, plan fault.Plan, verdict string, crash *fault.Crash,
	stopErr error, rep *fault.Report, res recovery.Result, diffs int) outcome {
	crashS := "none"
	if crash != nil {
		crashS = fmt.Sprintf("%s@%d", crash.Cause, crash.Cycle)
	} else if stopErr != nil {
		crashS = "commit-error"
	}
	q := "none"
	if res.Quarantined() {
		q = fmt.Sprintf("%d+%d", res.QuarantinedFrom, res.QuarantinedBytes)
	}
	line := fmt.Sprintf(
		"plan=%s seed=%#x verdict=%s crash=%s records=%d drop=%d corrupt=%d diskerr=%d scanned=%d applied=%d txns=%d invalid=%d tail=%d q=%s lost=%d diff=%d",
		name, plan.Seed, verdict, crashS, rep.RecordsSeen, rep.Dropped, rep.Corrupted,
		rep.DiskErrors, res.Scanned, res.Applied, res.Txns, res.InvalidRecords,
		res.IncompleteTail, q, res.LostRecords, diffs)
	return outcome{line: line, ok: passVerdict(verdict)}
}
