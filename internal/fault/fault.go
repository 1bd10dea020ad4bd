// Package fault is a seeded, fully deterministic fault injector for the
// simulated LVM machine. It executes a declarative Plan against a running
// System: crash at a chosen cycle (or at the Kth logging fault or FIFO
// overload), drop or bit-corrupt individual log records in the hardware
// logger's DMA path, zero ("truncate") the tail of the log segment
// mid-page at the crash point, and fail ramdisk operations transiently.
//
// Determinism is the design invariant: all randomness comes from a
// xorshift64* generator seeded by the plan, all triggers key off simulated
// state (cycle counts, event ordinals, operation ordinals), and the
// injector charges no simulated cycles of its own — so the same plan over
// the same workload produces byte-identical damage, and a disarmed
// injector leaves the simulation cycle-exact.
//
// The injector also keeps the ground truth of everything it broke (the
// Report): which log offsets were damaged, which segment ranges each
// damaged record would have written, and what was in the volatile FIFOs
// at the crash. The crashtest harness verdicts recovery against this
// record — a recovered image may differ from the reference shadow only
// where the report says damage was inflicted.
package fault

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/cycles"
	"lvm/internal/hwlogger"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/phys"
	"lvm/internal/ramdisk"
)

// RNG is the xorshift64* generator used for all injector randomness (the
// same algorithm the TPC-A driver uses; no host randomness anywhere).
type RNG struct{ s uint64 }

// NewRNG seeds a generator; seed 0 is remapped to a fixed odd constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Plan declares the faults one run injects. Zero values disable each
// trigger, so the zero Plan is a clean (control) run.
type Plan struct {
	Name string
	Seed uint64

	// Crash triggers (first one to fire wins; the crash is a panic with a
	// *Crash sentinel that only the crashtest driver recovers).
	CrashAtCycle    uint64 // crash when a CPU clock reaches this cycle
	CrashAtFault    int    // crash at the Kth logging fault
	CrashAtOverload int    // crash at the Kth FIFO overload
	CrashAtDiskOp   int    // crash at the Kth ramdisk operation

	// DMA-path record perturbation (hwlogger record mode).
	DropEveryN    int // drop every Nth record before it reaches memory
	CorruptEveryN int // flip one seeded bit in every Nth record

	// TruncateTailBytes zeroes this many bytes off the end of the log
	// segment at the crash, modeling a torn DMA burst; a value that is
	// not a multiple of the record size tears a record mid-write.
	TruncateTailBytes uint32

	// OverloadThreshold, if non-zero, lowers the logger's FIFO overload
	// threshold to drive sustained overload storms.
	OverloadThreshold int

	// Transient disk failures: with DiskFailEveryN = N and burst B, ops
	// i with i%N >= N-B fail. Immediate retries are consecutive ops, so
	// a retrier with more than B attempts always gets through — the
	// fault is transient by construction.
	DiskFailEveryN int
	DiskFailBurst  int // consecutive failures per window (default 2)
}

// Crash is the sentinel the injector panics with to simulate a machine
// crash. Only the crashtest driver recovers it; anywhere else it
// propagates like the real panic it stands in for.
type Crash struct {
	Cycle uint64
	Cause string
}

func (c *Crash) Error() string {
	return fmt.Sprintf("simulated crash at cycle %d (%s)", c.Cycle, c.Cause)
}

// DamageKind classifies one injected perturbation.
type DamageKind uint8

const (
	// DamageDrop: a record was dropped in the DMA path.
	DamageDrop DamageKind = iota
	// DamageCorrupt: a record was bit-corrupted in the DMA path.
	DamageCorrupt
	// DamageTruncate: a record was zeroed (wholly or torn) by the
	// log-tail truncation at the crash.
	DamageTruncate
	// DamageInFlight: a write was still in the volatile FIFOs when the
	// machine crashed.
	DamageInFlight
)

// String names the kind.
func (k DamageKind) String() string {
	switch k {
	case DamageDrop:
		return "drop"
	case DamageCorrupt:
		return "corrupt"
	case DamageTruncate:
		return "truncate"
	default:
		return "in-flight"
	}
}

// noOff marks an unresolvable offset.
const noOff = ^uint32(0)

// Damage is ground truth for one perturbed record: where in the log it
// was (or would have been), and which data-segment range(s) the
// perturbation can affect.
type Damage struct {
	Kind   DamageKind
	LogOff uint32 // offset within the log segment (noOff if unknown)
	SegOff uint32 // original target range within the data segment
	Size   uint32
	// AltSegOff/AltSize: for corrupted records, where the corrupted
	// address resolves (== SegOff/Size when the address was untouched or
	// no longer resolves).
	AltSegOff uint32
	AltSize   uint32
	// Marker is set when the damaged record targeted the marker area —
	// transaction bracketing is damaged, so whole batches may be lost.
	Marker bool
}

// covers reports whether byte off of the data segment lies in one of the
// damage's target ranges.
func (d Damage) covers(off uint32) bool {
	if d.SegOff != noOff && off >= d.SegOff && off < d.SegOff+d.Size {
		return true
	}
	if d.AltSegOff != noOff && off >= d.AltSegOff && off < d.AltSegOff+d.AltSize {
		return true
	}
	return false
}

// Report is the injector's ground truth of the damage it inflicted.
type Report struct {
	Crashed    bool
	CrashCycle uint64
	CrashCause string

	// Damage lists DMA-path and truncation perturbations in injection
	// order; InFlight lists the writes lost with the FIFOs at the crash.
	Damage   []Damage
	InFlight []Damage

	// TruncStart/TruncEnd is the zeroed log range ([0,0) if none).
	TruncStart, TruncEnd uint32

	RecordsSeen int // records that passed through the DMA hook
	Dropped     int
	Corrupted   int
	DiskErrors  int
}

// AnyMarkerDamage reports whether any damaged or lost record targeted
// the marker area.
func (r *Report) AnyMarkerDamage() bool {
	for _, d := range r.Damage {
		if d.Marker {
			return true
		}
	}
	for _, d := range r.InFlight {
		if d.Marker {
			return true
		}
	}
	return false
}

// Explains reports whether a mismatch at data-segment byte off is
// accounted for by the inflicted damage.
func (r *Report) Explains(off uint32) bool {
	for _, d := range r.Damage {
		if d.covers(off) {
			return true
		}
	}
	for _, d := range r.InFlight {
		if d.covers(off) {
			return true
		}
	}
	return false
}

// ExplainsQuarantine reports whether a quarantine starting at log offset
// q coincides with injected damage: an exact damaged-record offset, the
// truncated tail, or any offset at/after the first damaged log position
// (corruption can make the validator trip anywhere downstream of the
// first lie, e.g. a batch left buffered by a corrupted marker).
func (r *Report) ExplainsQuarantine(q uint32) bool {
	if r.TruncEnd > r.TruncStart && q >= r.TruncStart && q < r.TruncEnd {
		return true
	}
	first := noOff
	for _, d := range r.Damage {
		if d.LogOff == q {
			return true
		}
		if d.LogOff != noOff && d.LogOff < first {
			first = d.LogOff
		}
	}
	return first != noOff && q >= first
}

// Injector executes a Plan against a running System.
type Injector struct {
	plan Plan
	rng  *RNG

	sys         *core.System
	disk        *ramdisk.Disk
	ls          *core.Segment // log segment under attack (may be nil)
	data        *core.Segment // logged data segment (may be nil)
	markerLimit uint32        // data offsets below this are marker words

	sh *metrics.Shard

	records   int
	faults    int
	overloads int
	diskOps   int

	recovery bool // recovery phase: crash triggers are disarmed
	crashed  bool

	savedFault    hwlogger.FaultHandler
	savedOverload func(uint64) uint64

	report Report
}

// New creates an injector for the plan.
func New(plan Plan) *Injector {
	if plan.DiskFailBurst <= 0 {
		plan.DiskFailBurst = 2
	}
	return &Injector{plan: plan, rng: NewRNG(plan.Seed)}
}

// Report returns the injector's ground-truth damage record.
func (in *Injector) Report() *Report { return &in.report }

// SetRecoveryMode switches crash triggers off (transient disk failures
// stay armed) so the recovery phase can run over the same hooks without
// being killed again.
func (in *Injector) SetRecoveryMode(on bool) { in.recovery = on }

// Arm installs the plan's hooks: the machine cycle watch, the logger's
// DMA hook (either logger), the bus logger's fault/overload handler wraps
// (the on-chip logger has neither, Section 4.6), and the ramdisk failure
// hook. ls/data/markerLimit describe the logged segment pair
// under test (both may be nil for disk-only plans). Arm charges no
// cycles and, for triggers the plan leaves at zero, installs nothing.
func (in *Injector) Arm(sys *core.System, disk *ramdisk.Disk, ls, data *core.Segment, markerLimit uint32) {
	in.sys = sys
	in.disk = disk
	in.ls = ls
	in.data = data
	in.markerLimit = markerLimit
	in.sh = sys.DeviceShard()

	if in.plan.CrashAtCycle > 0 {
		sys.Machine().SetCycleWatch(in.plan.CrashAtCycle, func(c *machine.CPU) {
			in.crash("cycle-watch", c.Now)
		})
	}
	if c := sys.K.LogCore(); c != nil && (in.plan.DropEveryN > 0 || in.plan.CorruptEveryN > 0) {
		c.DMAHook = in.dmaHook
	}
	if log := sys.K.Log; log != nil {
		if in.plan.OverloadThreshold > 0 {
			log.Threshold = in.plan.OverloadThreshold
		}
		if in.plan.CrashAtFault > 0 {
			in.savedFault = log.OnFault
			log.OnFault = func(l *hwlogger.Logger, f hwlogger.Fault) bool {
				in.faults++
				if !in.recovery && in.faults == in.plan.CrashAtFault {
					in.crash("logging-fault", f.Write.Time)
				}
				if in.savedFault == nil {
					return false
				}
				return in.savedFault(l, f)
			}
		}
		if in.plan.CrashAtOverload > 0 {
			in.savedOverload = log.OnOverload
			log.OnOverload = func(drained uint64) uint64 {
				in.overloads++
				if !in.recovery && in.overloads == in.plan.CrashAtOverload {
					in.crash("overload", drained)
				}
				if in.savedOverload == nil {
					return drained + cycles.OverloadKernelCycles
				}
				return in.savedOverload(drained)
			}
		}
	}
	if disk != nil && (in.plan.CrashAtDiskOp > 0 || in.plan.DiskFailEveryN > 0) {
		disk.FailHook = in.diskHook
	}
}

// dmaHook implements drop/corrupt injection on the logger's record DMA
// path (either logger: the hook lives in the shared logcore.Core).
func (in *Injector) dmaHook(rec *logrec.Record, dst phys.Addr) (drop bool) {
	in.records++
	in.report.RecordsSeen++
	if in.plan.DropEveryN > 0 && in.records%in.plan.DropEveryN == 0 {
		in.report.Dropped++
		in.report.Damage = append(in.report.Damage, in.recordDamage(DamageDrop, *rec, *rec, dst))
		in.sh.Inc(metrics.FaultRecordsDropped)
		in.sh.Inc(metrics.FaultsInjected)
		return true
	}
	if in.plan.CorruptEveryN > 0 && in.records%in.plan.CorruptEveryN == 0 {
		orig := *rec
		var buf [logrec.Size]byte
		rec.Encode(buf[:])
		bit := in.rng.Intn(logrec.Size * 8)
		buf[bit/8] ^= 1 << (bit % 8)
		*rec = logrec.Decode(buf[:])
		in.report.Corrupted++
		in.report.Damage = append(in.report.Damage, in.recordDamage(DamageCorrupt, orig, *rec, dst))
		in.sh.Inc(metrics.RecordsCorrupted)
		in.sh.Inc(metrics.FaultsInjected)
	}
	return false
}

// recordDamage builds the ground-truth entry for a perturbed record.
func (in *Injector) recordDamage(kind DamageKind, orig, now logrec.Record, dst phys.Addr) Damage {
	d := Damage{Kind: kind, LogOff: noOff, SegOff: noOff, AltSegOff: noOff}
	if seg, off, ok := in.sys.K.ReverseTranslate(dst); ok && seg == in.ls {
		d.LogOff = off
	}
	d.SegOff, d.Size, d.Marker = in.resolveTarget(orig)
	d.AltSegOff, d.AltSize, _ = in.resolveTarget(now)
	if m := d.AltSegOff != noOff && d.AltSegOff < in.markerLimit; m {
		d.Marker = true
	}
	return d
}

// resolveTarget maps a record's address (physical, or virtual on chip) to
// its data-segment range.
func (in *Injector) resolveTarget(rec logrec.Record) (off, size uint32, marker bool) {
	seg, segOff, ok := in.sys.K.ResolveLogAddr(in.ls, rec.Addr)
	if !ok || seg != in.data {
		return noOff, 0, false
	}
	n := uint32(rec.WriteSize)
	if n > 4 {
		n = 4
	}
	return segOff, n, segOff < in.markerLimit
}

// diskHook implements transient failures and the disk-op crash trigger.
func (in *Injector) diskHook(op ramdisk.Op, off uint64, n int) error {
	i := in.diskOps
	in.diskOps++
	if !in.recovery && in.plan.CrashAtDiskOp > 0 && in.diskOps == in.plan.CrashAtDiskOp {
		in.crash("disk-op", in.sys.Elapsed())
	}
	if N := in.plan.DiskFailEveryN; N > 0 && i%N >= N-in.plan.DiskFailBurst {
		in.report.DiskErrors++
		in.sh.Inc(metrics.FaultDiskErrors)
		in.sh.Inc(metrics.FaultsInjected)
		return fmt.Errorf("fault: injected transient %s error at op %d", op, i)
	}
	return nil
}

// CrashNow fires the crash machinery from client code — the surface a
// scenario uses to die inside a software window no device-op count can
// reach deterministically (e.g. between a WAL reset and the LVM-log
// truncation, via compact.Manager.FailHook). Like every trigger it is a
// no-op while disarmed, in recovery mode, or after the first crash.
func (in *Injector) CrashNow(cause string) {
	if in.sys == nil || in.recovery {
		return
	}
	in.crash(cause, in.sys.Elapsed())
}

// crash simulates the machine dying: capture then discard the volatile
// FIFO contents (ground truth — a power loss destroys them), apply the
// planned log-tail truncation, and unwind with the Crash sentinel. Only
// the first trigger fires.
func (in *Injector) crash(cause string, cycle uint64) {
	if in.crashed {
		return
	}
	in.crashed = true
	in.report.Crashed = true
	in.report.CrashCycle = cycle
	in.report.CrashCause = cause
	in.sh.Inc(metrics.FaultCrashes)
	in.sh.Inc(metrics.FaultsInjected)

	k := in.sys.K
	if c := k.LogCore(); c != nil {
		c.PendingWrites(func(w machine.LoggedWrite) {
			seg, segOff, ok := k.ReverseTranslate(w.Addr)
			if !ok || seg != in.data {
				return
			}
			n := uint32(w.Size)
			if n > 4 {
				n = 4
			}
			in.report.InFlight = append(in.report.InFlight, Damage{
				Kind:      DamageInFlight,
				LogOff:    noOff,
				SegOff:    segOff,
				Size:      n,
				AltSegOff: noOff,
				Marker:    segOff < in.markerLimit,
			})
		})
		c.DiscardPending()
	}
	if in.plan.TruncateTailBytes > 0 && in.ls != nil {
		in.truncateTail()
	}
	panic(&Crash{Cycle: cycle, Cause: cause})
}

// truncateTail zeroes the last TruncateTailBytes of the surviving log,
// recording which records (whole or torn) the zeroing destroys.
func (in *Injector) truncateTail() {
	end := in.sys.K.LogAppendOffset(in.ls)
	if end > in.ls.Size() {
		end = in.ls.Size()
	}
	t := in.plan.TruncateTailBytes
	if t > end {
		t = end
	}
	if t == 0 {
		return
	}
	start := end - t
	firstRec := start / logrec.Size * logrec.Size
	var buf [logrec.Size]byte
	for off := firstRec; off+logrec.Size <= end || off < end; off += logrec.Size {
		n := uint32(logrec.Size)
		if off+n > end {
			n = end - off
		}
		for i := range buf {
			buf[i] = 0
		}
		in.ls.ReadInto(off, buf[:n])
		rec := logrec.Decode(buf[:])
		d := Damage{Kind: DamageTruncate, LogOff: off, SegOff: noOff, AltSegOff: noOff}
		d.SegOff, d.Size, d.Marker = in.resolveTarget(rec)
		in.report.Damage = append(in.report.Damage, d)
	}
	in.report.TruncStart, in.report.TruncEnd = start, end
	in.ls.RawWrite(start, make([]byte, t))
	in.sh.Inc(metrics.FaultsInjected)
}
