package fault

import (
	"fmt"
	"testing"

	"lvm/internal/core"
	"lvm/internal/logrec"
	"lvm/internal/ramdisk"
)

func TestRNGDeterminismAndSeedRemap(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	z := NewRNG(0)
	if z.s == 0 {
		t.Fatalf("zero seed not remapped")
	}
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatalf("Intn must be 0 for non-positive n")
	}
}

// logRig boots a one-CPU system with a logged segment.
func logRig(t *testing.T) (*core.System, *core.Segment, *core.Segment, *core.Process, core.Addr) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 1024})
	seg := core.NewNamedSegment(sys, "ft-data", 16*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 8)
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, seg, ls, sys.NewProcess(0, as), base
}

// runWorkload issues n seeded stores under the armed plan and returns the
// injector's report (the workload never crashes here: the plans under
// test only perturb records).
func runWorkload(t *testing.T, plan Plan, n int) (*Injector, *core.System, *core.Segment, string) {
	t.Helper()
	sys, seg, ls, p, base := logRig(t)
	in := New(plan)
	in.Arm(sys, nil, ls, seg, 16)
	wr := NewRNG(plan.Seed + 1)
	for i := 0; i < n; i++ {
		off := 16 + uint32(wr.Intn(1000))*4
		p.Store32(base+off, uint32(wr.Next()))
	}
	sys.Sync()
	return in, sys, ls, fmt.Sprintf("%+v", *in.Report())
}

func TestInjectorReportIsDeterministic(t *testing.T) {
	plan := Plan{Name: "det", Seed: 99, DropEveryN: 7, CorruptEveryN: 11}
	_, _, _, r1 := runWorkload(t, plan, 200)
	_, _, _, r2 := runWorkload(t, plan, 200)
	if r1 != r2 {
		t.Fatalf("same plan produced different reports:\n%s\n%s", r1, r2)
	}
}

func TestDropGroundTruthKeepsLogDense(t *testing.T) {
	plan := Plan{Seed: 5, DropEveryN: 10}
	in, sys, ls, _ := runWorkload(t, plan, 100)
	rep := in.Report()
	if rep.RecordsSeen != 100 || rep.Dropped != 10 {
		t.Fatalf("seen=%d dropped=%d, want 100/10", rep.RecordsSeen, rep.Dropped)
	}
	// Every surviving record is dense in the log: append offset counts
	// only survivors.
	if got := sys.K.LogAppendOffset(ls); got != 90*logrec.Size {
		t.Fatalf("append offset = %d, want %d", got, 90*logrec.Size)
	}
	for _, d := range rep.Damage {
		if d.Kind != DamageDrop {
			t.Fatalf("unexpected damage kind %v", d.Kind)
		}
		if d.SegOff == noOff || d.Size != 4 {
			t.Fatalf("drop damage lost its target range: %+v", d)
		}
		if !d.covers(d.SegOff) || d.covers(d.SegOff+4) {
			t.Fatalf("covers() wrong for %+v", d)
		}
	}
}

func TestCorruptGroundTruth(t *testing.T) {
	plan := Plan{Seed: 6, CorruptEveryN: 25}
	in, _, _, _ := runWorkload(t, plan, 100)
	rep := in.Report()
	if rep.Corrupted != 4 || len(rep.Damage) != 4 {
		t.Fatalf("corrupted=%d damage=%d, want 4/4", rep.Corrupted, len(rep.Damage))
	}
	for _, d := range rep.Damage {
		if d.Kind != DamageCorrupt {
			t.Fatalf("kind = %v", d.Kind)
		}
		if d.LogOff == noOff {
			t.Fatalf("corrupt damage without log offset: %+v", d)
		}
	}
}

func TestCrashAtCycleTruncatesTail(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)
	plan := Plan{Seed: 3, CrashAtCycle: 40_000, TruncateTailBytes: 40}
	in := New(plan)
	in.Arm(sys, nil, ls, seg, 16)

	var crash *Crash
	func() {
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(*Crash)
				if !ok {
					panic(r)
				}
				crash = c
			}
		}()
		for i := uint32(0); i < 10_000; i++ {
			p.Store32(base+16+(i%1000)*4, i)
			p.Compute(50)
		}
	}()
	if crash == nil {
		t.Fatalf("crash never fired")
	}
	if crash.Cycle < 40_000 || crash.Cause != "cycle-watch" {
		t.Fatalf("crash = %+v", crash)
	}
	if crash.Error() == "" {
		t.Fatalf("empty crash error")
	}

	rep := in.Report()
	if !rep.Crashed || rep.CrashCause != "cycle-watch" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TruncEnd-rep.TruncStart != 40 {
		t.Fatalf("truncated %d bytes, want 40", rep.TruncEnd-rep.TruncStart)
	}
	for _, b := range ls.RawRead(rep.TruncStart, 40) {
		if b != 0 {
			t.Fatalf("truncated range not zeroed")
		}
	}
	// Ground truth covers every truncated record, including the torn one
	// at the start (40 is not a multiple of 16).
	var truncs int
	for _, d := range rep.Damage {
		if d.Kind == DamageTruncate {
			truncs++
			if !rep.ExplainsQuarantine(d.LogOff) {
				t.Fatalf("truncated record at %d not explained", d.LogOff)
			}
		}
	}
	if truncs < 3 {
		t.Fatalf("only %d truncate damage entries for 40 bytes", truncs)
	}
	if !rep.ExplainsQuarantine(rep.TruncStart) {
		t.Fatalf("quarantine at truncation start not explained")
	}
}

func TestCrashCapturesInFlightFIFO(t *testing.T) {
	sys, seg, ls, p, base := logRig(t)
	// Crash mid-burst: with no compute between stores the FIFO holds
	// records when the cycle watch fires.
	plan := Plan{Seed: 4, CrashAtCycle: 5_000}
	in := New(plan)
	in.Arm(sys, nil, ls, seg, 16)
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Errorf("expected a crash")
			}
		}()
		for i := uint32(0); i < 100_000; i++ {
			p.Store32(base+16+(i%1000)*4, i)
		}
	}()
	rep := in.Report()
	if !rep.Crashed {
		t.Fatalf("no crash recorded")
	}
	if len(rep.InFlight) == 0 {
		t.Fatalf("burst crash captured no in-flight writes")
	}
	if sys.K.Log.Pending() != 0 {
		t.Fatalf("FIFO not discarded at crash")
	}
	for _, d := range rep.InFlight {
		if d.Kind != DamageInFlight || d.SegOff == noOff {
			t.Fatalf("in-flight damage = %+v", d)
		}
	}
}

func TestDiskFailWindowAndCrashAtOp(t *testing.T) {
	sys, _, _, _, _ := logRig(t)
	disk := ramdisk.New()
	plan := Plan{Seed: 8, DiskFailEveryN: 5, DiskFailBurst: 2}
	in := New(plan)
	in.Arm(sys, disk, nil, nil, 0)

	fails := 0
	for i := 0; i < 10; i++ {
		if err := disk.TryWriteAt(nil, 0, []byte{1}); err != nil {
			fails++
		}
	}
	// Ops 3,4 and 8,9 fail (i%5 >= 3): transient windows of exactly the
	// burst length, so a >2-attempt retrier always gets through.
	if fails != 4 || in.Report().DiskErrors != 4 {
		t.Fatalf("fails=%d reported=%d, want 4/4", fails, in.Report().DiskErrors)
	}
	// Crash at the Kth disk op, disabled in recovery mode.
	sys2, _, _, _, _ := logRig(t)
	disk2 := ramdisk.New()
	in2 := New(Plan{Seed: 9, CrashAtDiskOp: 3})
	in2.Arm(sys2, disk2, nil, nil, 0)
	crashed := false
	func() {
		defer func() {
			if _, ok := recover().(*Crash); ok {
				crashed = true
			}
		}()
		for i := 0; i < 5; i++ {
			disk2.TryWriteAt(nil, 0, []byte{1})
		}
	}()
	if !crashed {
		t.Fatalf("CrashAtDiskOp never fired")
	}
	in2.SetRecoveryMode(true)
	for i := 0; i < 5; i++ {
		if err := disk2.TryWriteAt(nil, 0, []byte{1}); err != nil {
			t.Fatalf("recovery-mode op failed: %v", err)
		}
	}
}

func TestReportExplains(t *testing.T) {
	rep := Report{
		Damage: []Damage{
			{Kind: DamageCorrupt, LogOff: 64, SegOff: 100, Size: 4, AltSegOff: 200, AltSize: 4},
			{Kind: DamageDrop, LogOff: 96, SegOff: 300, Size: 2, AltSegOff: noOff},
		},
		InFlight:   []Damage{{Kind: DamageInFlight, LogOff: noOff, SegOff: 8, Size: 4, AltSegOff: noOff, Marker: true}},
		TruncStart: 400, TruncEnd: 440,
	}
	for _, off := range []uint32{100, 103, 200, 300, 301, 8} {
		if !rep.Explains(off) {
			t.Fatalf("offset %d not explained", off)
		}
	}
	for _, off := range []uint32{99, 104, 204, 302, 12} {
		if rep.Explains(off) {
			t.Fatalf("offset %d wrongly explained", off)
		}
	}
	if !rep.AnyMarkerDamage() {
		t.Fatalf("marker damage not detected")
	}
	// Quarantine: inside the truncated range, at a damaged record, or
	// anywhere downstream of the first damage.
	for _, q := range []uint32{400, 439, 64, 96, 70, 1000} {
		if !rep.ExplainsQuarantine(q) {
			t.Fatalf("quarantine at %d not explained", q)
		}
	}
	if rep.ExplainsQuarantine(0) {
		t.Fatalf("quarantine before all damage wrongly explained")
	}
	for _, k := range []DamageKind{DamageDrop, DamageCorrupt, DamageTruncate, DamageInFlight} {
		if k.String() == "" {
			t.Fatalf("unnamed damage kind %d", k)
		}
	}
}

// TestOnChipLoggerIsInjectable: the drop/corrupt hook and the crash-time
// capture of in-flight writes reach the Section 4.6 on-chip logger too,
// with ground truth resolved through its virtual-address records.
func TestOnChipLoggerIsInjectable(t *testing.T) {
	sys := core.NewSystemOnChip(core.Config{NumCPUs: 1, MemFrames: 1024})
	seg := core.NewNamedSegment(sys, "ft-chip", 16*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, 32) // room for every record: none absorbed
	if err := reg.Log(ls); err != nil {
		t.Fatal(err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess(0, as)
	in := New(Plan{Seed: 8, DropEveryN: 10, CorruptEveryN: 7, CrashAtCycle: 20_000})
	in.Arm(sys, nil, ls, seg, 16)
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Errorf("expected a crash")
			}
		}()
		for i := uint32(0); i < 100_000; i++ {
			p.Store32(base+16+(i%1000)*4, i)
			if i%16 == 0 {
				p.Compute(1) // a watch site: logged stores stay write-back on chip
			}
		}
	}()
	rep := in.Report()
	if rep.RecordsSeen == 0 || rep.Dropped != rep.RecordsSeen/10 || rep.Corrupted == 0 {
		t.Fatalf("seen %d, dropped %d, corrupted %d: the hook never reached the on-chip logger",
			rep.RecordsSeen, rep.Dropped, rep.Corrupted)
	}
	for _, d := range rep.Damage {
		if d.SegOff == noOff || d.LogOff == noOff {
			t.Fatalf("damage not resolved through the virtual record address: %+v", d)
		}
	}
	if len(rep.InFlight) == 0 || sys.K.Chip.Pending() != 0 {
		t.Fatalf("in-flight %d, still buffered %d: the crash did not capture the write buffer",
			len(rep.InFlight), sys.K.Chip.Pending())
	}
}
