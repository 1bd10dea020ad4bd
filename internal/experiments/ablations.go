package experiments

import (
	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/hwlogger"
	"lvm/internal/machine"
	"lvm/internal/phys"
	"lvm/internal/ramdisk"
	"lvm/internal/rlvm"
	"lvm/internal/rvm"
	"lvm/internal/sim"
	"lvm/internal/tlblog"
)

// --- Ablation 1: prototype bus logger vs Section 4.6 on-chip logger ---

// LoggerModelPoint compares per-logged-write cost across logging
// hardware for one compute grain.
type LoggerModelPoint struct {
	Compute            uint64
	PrototypeWrite     float64 // bus logger, write-through (cycles/write)
	OnChipWrite        float64 // TLB logger, write-back (cycles/write)
	UnloggedWrite      float64 // plain write-back baseline
	PrototypeOverloads uint64
}

// LoggerModels sweeps compute grain. It verifies the Section 4.6 claim:
// "With this on-chip logging support, the cost of logged writes should be
// essentially the same as unlogged writes (except for the bus overhead of
// the log records)" — and that the overload pathology disappears.
func LoggerModels(sweep []uint64, iterations int) []LoggerModelPoint {
	run := func(c uint64, mode int) (float64, uint64) {
		m := machine.New(machine.Config{NumCPUs: 1, MemFrames: 1024})
		var overloads *uint64
		switch mode {
		case 0: // prototype
			lg := newPrototypeShim(m)
			overloads = &lg.Overloads
		case 1: // on-chip
			lg := tlblog.New(m.Bus, m.Phys)
			// Map the whole data window to log 0 with generous space.
			for vpn := uint32(0); vpn < 64; vpn++ {
				lg.MapPage(vpn, 0)
			}
			logBase := phys.FrameBase(allocFrames(m, 64))
			lg.SetDescriptor(0, logBase, logBase+64*phys.PageSize)
			m.AttachLog(lg)
		}
		dataBase := phys.FrameBase(allocFrames(m, 64))
		cpu := m.CPUs[0]
		addr := dataBase
		step := func() {
			cpu.Compute(c)
			switch mode {
			case 0:
				cpu.WordWrite(addr, addr-dataBase, uint32(addr), 4, true, true)
			case 1:
				cpu.WordWrite(addr, addr-dataBase, uint32(addr), 4, false, true)
			default:
				cpu.WordWrite(addr, addr-dataBase, uint32(addr), 4, false, false)
			}
			addr += 4
			if addr >= dataBase+64*phys.PageSize {
				addr = dataBase
			}
		}
		for i := 0; i < 32; i++ {
			step()
		}
		start := cpu.Now
		for i := 0; i < iterations; i++ {
			step()
		}
		perWrite := (float64(cpu.Now-start) - float64(c)*float64(iterations)) / float64(iterations)
		var ov uint64
		if overloads != nil {
			ov = *overloads
		}
		return perWrite, ov
	}
	out, _ := sim.Map(len(sweep), func(i int) (LoggerModelPoint, error) {
		c := sweep[i]
		p := LoggerModelPoint{Compute: c}
		p.PrototypeWrite, p.PrototypeOverloads = run(c, 0)
		p.OnChipWrite, _ = run(c, 1)
		p.UnloggedWrite, _ = run(c, 2)
		return p, nil
	})
	return out
}

// newPrototypeShim attaches a raw prototype bus logger to a bare machine
// with a self-serving fault handler: missing page-mapping entries are
// loaded on demand (all pages log to log 0) and the log wraps in place
// when it fills a page — a minimal stand-in for the kernel's handler that
// keeps the per-record fault amortization realistic (one fault per 256
// records).
func newPrototypeShim(m *machine.Machine) *hwlogger.Logger {
	lg := hwlogger.New(m.Bus, m.Phys)
	logBase := phys.FrameBase(allocFrames(m, 1))
	lg.SetLogHead(0, logBase, hwlogger.ModeRecord)
	lg.OnFault = func(l *hwlogger.Logger, f hwlogger.Fault) bool {
		switch f.Kind {
		case hwlogger.FaultMissingPMT:
			l.LoadPMT(f.PPN, 0)
			if !l.LogHead(0).Valid {
				l.SetLogHead(0, logBase, hwlogger.ModeRecord)
			}
			return true
		case hwlogger.FaultInvalidLogAddr:
			l.SetLogHead(0, logBase, hwlogger.ModeRecord)
			return true
		}
		return false
	}
	m.AttachLog(lg)
	return lg
}

// FormatLoggerModels renders the comparison.
func FormatLoggerModels(points []LoggerModelPoint) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			d(p.Compute), f1(p.PrototypeWrite), f1(p.OnChipWrite), f1(p.UnloggedWrite), d(p.PrototypeOverloads),
		})
	}
	return Table([]string{"c (cycles)", "prototype", "on-chip", "unlogged", "proto overloads"}, rows)
}

// --- Ablation 2: log-based consistency vs Munin twin/diff ---

// ConsistencyPoint compares producer overhead and bytes for one write
// pattern.
type ConsistencyPoint struct {
	Pattern     string
	MuninCycles uint64
	LVMCycles   uint64
	MuninBytes  int
	LVMBytes    int
}

// Consistency runs distinct-writes and repeated-writes patterns over both
// protocols (Section 2.6 and its acknowledged trade-off).
func Consistency(writes int) ([]ConsistencyPoint, error) {
	const size = 8 * core.PageSize
	run := func(repeat bool) (ConsistencyPoint, error) {
		name := "distinct"
		if repeat {
			name = "repeated"
		}
		pt := ConsistencyPoint{Pattern: name}
		sysA := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
		munin, err := dsm.NewMuninProducer(sysA, sysA.NewProcess(0, sysA.NewAddressSpace()), size)
		if err != nil {
			return pt, err
		}
		sysB := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
		lvmp, err := dsm.NewLVMProducer(sysB, sysB.NewProcess(0, sysB.NewAddressSpace()), size, 128)
		if err != nil {
			return pt, err
		}
		for i := 0; i < writes; i++ {
			off := uint32(i*68) % size &^ 3
			if repeat {
				off = 0
			}
			munin.Write(off, uint32(i))
			lvmp.Write(off, uint32(i))
		}
		_, stM := munin.Release()
		_, stL := lvmp.Release()
		pt.MuninCycles = munin.WriteCycles() + stM.Cycles
		pt.LVMCycles = lvmp.WriteCycles() + stL.Cycles
		pt.MuninBytes = stM.Bytes
		pt.LVMBytes = stL.Bytes
		return pt, nil
	}
	return sim.Map(2, func(i int) (ConsistencyPoint, error) {
		return run(i == 1)
	})
}

// FormatConsistency renders the comparison.
func FormatConsistency(points []ConsistencyPoint) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.Pattern, d(p.MuninCycles), d(p.LVMCycles),
			d(uint64(p.MuninBytes)), d(uint64(p.LVMBytes)),
		})
	}
	return Table([]string{"pattern", "munin cycles", "lvm cycles", "munin bytes", "lvm bytes"}, rows)
}

// --- Ablation 3: SetRange amortization ---

// SetRangeAmortization compares per-write cost of (a) RVM with one
// set_range per write, (b) RVM with one set_range amortized over a large
// range, and (c) RLVM — the Section 5.3 discussion ("the performance of
// RVM can be improved by calling set_range() only once over a large
// region, amortizing its cost over several writes. However, there is a
// conflict between these two techniques and encapsulation.").
type SetRangeResult struct {
	PerWriteRVM  float64
	AmortizedRVM float64
	RLVM         float64
	Writes       int
}

// SetRangeAblation measures all three with the given write count.
func SetRangeAblation(writes int) (SetRangeResult, error) {
	res := SetRangeResult{Writes: writes}
	// (a) and (b) on RVM.
	sys := core.NewSystemNoLogger(core.Config{NumCPUs: 1, MemFrames: 2048})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	m, err := rvm.New(sys, p, 4*core.PageSize, ramdisk.New(), rvm.Options{})
	if err != nil {
		return res, err
	}
	if err := m.Begin(); err != nil {
		return res, err
	}
	start := p.Now()
	for i := 0; i < writes; i++ {
		if err := m.RecoverableWrite32(m.Base()+uint32(i*4), uint32(i)); err != nil {
			return res, err
		}
	}
	res.PerWriteRVM = float64(p.Now()-start) / float64(writes)

	start = p.Now()
	if err := m.SetRange(m.Base(), uint32(writes*4)); err != nil {
		return res, err
	}
	for i := 0; i < writes; i++ {
		p.Store32(m.Base()+uint32(i*4), uint32(i))
	}
	res.AmortizedRVM = float64(p.Now()-start) / float64(writes)
	if err := m.Commit(); err != nil {
		return res, err
	}

	// (c) RLVM.
	sys2 := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 4096})
	p2 := sys2.NewProcess(0, sys2.NewAddressSpace())
	m2, err := rlvm.New(sys2, p2, 4*core.PageSize, ramdisk.New(), rlvm.Options{LogPages: 64})
	if err != nil {
		return res, err
	}
	if err := m2.Begin(); err != nil {
		return res, err
	}
	m2.RecoverableWrite32(m2.Base(), 0) // warm
	start = p2.Now()
	for i := 0; i < writes; i++ {
		if err := m2.RecoverableWrite32(m2.Base()+uint32(i*4), uint32(i)); err != nil {
			return res, err
		}
	}
	res.RLVM = float64(p2.Now()-start) / float64(writes)
	return res, nil
}

// FormatSetRange renders the comparison.
func FormatSetRange(r SetRangeResult) string {
	rows := [][]string{
		{"RVM, set_range per write", f1(r.PerWriteRVM)},
		{"RVM, one amortized set_range", f1(r.AmortizedRVM)},
		{"RLVM (no set_range)", f1(r.RLVM)},
	}
	return Table([]string{"variant", "cycles/write"}, rows)
}

// --- Ablation 4: deferred copy vs Li/Appel write-protect checkpointing ---

// CheckpointStylePoint compares one checkpoint+rollback cycle.
type CheckpointStylePoint struct {
	DirtyPages      int
	DeferredCycles  uint64 // resetDeferredCopy-based
	WriteProtCycles uint64 // Li/Appel page-protection model
}

// CheckpointStyles measures a full checkpoint + k-dirty-pages + rollback
// cycle under both schemes over a segment of the given pages, using the
// real implementations: vm's deferred copy (Section 3.3) versus vm's
// Li/Appel write-protect checkpointer (Section 5.1). Both sides issue the
// same stores through a Process; the difference is pure protocol cost
// (protect-all + fault-copy-per-page vs. line-granularity reset).
func CheckpointStyles(segPages int, dirtySweep []int) ([]CheckpointStylePoint, error) {
	size := uint32(segPages) * core.PageSize
	dirtyStores := func(p *core.Process, base core.Addr, pages int) {
		for pg := 0; pg < pages; pg++ {
			for off := uint32(0); off < core.PageSize; off += core.LineSize {
				p.Store32(base+uint32(pg)*core.PageSize+off, off^uint32(pg))
			}
		}
	}
	warm := func(p *core.Process, base core.Addr) {
		for off := uint32(0); off < size; off += core.PageSize {
			p.Load32(base + off)
		}
	}
	var sweep []int
	for _, dirty := range dirtySweep {
		if dirty <= segPages {
			sweep = append(sweep, dirty)
		}
	}
	return sim.Map(len(sweep), func(i int) (CheckpointStylePoint, error) {
		dirty := sweep[i]
		pt := CheckpointStylePoint{DirtyPages: dirty}

		// Deferred copy.
		{
			sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 3*segPages + 1024})
			src := core.NewNamedSegment(sys, "ckpt", size, nil)
			dst := core.NewNamedSegment(sys, "work", size, nil)
			if err := dst.SetSourceSegment(src, 0); err != nil {
				return pt, err
			}
			reg := core.NewStdRegion(sys, dst)
			as := sys.NewAddressSpace()
			base, err := reg.Bind(as, 0)
			if err != nil {
				return pt, err
			}
			p := sys.NewProcess(0, as)
			warm(p, base)
			start := p.Now()
			// The checkpoint already exists (the source segment); dirty
			// k pages, then roll back.
			dirtyStores(p, base, dirty)
			if _, err := sys.K.ResetDeferredCopySegment(dst, p.CPU); err != nil {
				return pt, err
			}
			pt.DeferredCycles = p.Now() - start
		}

		// Li/Appel write-protect.
		{
			sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 3*segPages + 1024})
			seg := core.NewNamedSegment(sys, "work", size, nil)
			reg := core.NewStdRegion(sys, seg)
			as := sys.NewAddressSpace()
			base, err := reg.Bind(as, 0)
			if err != nil {
				return pt, err
			}
			p := sys.NewProcess(0, as)
			warm(p, base)
			wp, err := sys.K.NewWPCheckpoint(seg)
			if err != nil {
				return pt, err
			}
			start := p.Now()
			wp.Checkpoint(p.CPU) // protect every page
			dirtyStores(p, base, dirty)
			if err := wp.Rollback(p.CPU); err != nil {
				return pt, err
			}
			pt.WriteProtCycles = p.Now() - start
		}
		return pt, nil
	})
}

// FormatCheckpointStyles renders the comparison.
func FormatCheckpointStyles(points []CheckpointStylePoint) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			d(uint64(p.DirtyPages)), d(p.DeferredCycles), d(p.WriteProtCycles),
		})
	}
	return Table([]string{"dirty pages", "deferred copy (cycles)", "write-protect (cycles)"}, rows)
}

func allocFrames(m *machine.Machine, n int) uint32 {
	first, err := m.Phys.Alloc()
	if err != nil {
		panic(err)
	}
	for i := 1; i < n; i++ {
		if _, err := m.Phys.Alloc(); err != nil {
			panic(err)
		}
	}
	return first
}

// --- Ablation 5: full-stack on-chip logging (Section 4.6 kernel) ---

// FullStackPoint compares the Section 4.5 loop through the complete VM
// stack — page tables, fault handlers, log segments — under the prototype
// bus logger versus the Section 4.6 on-chip kernel.
type FullStackPoint struct {
	Compute                   uint64
	PrototypeIter             float64
	OnChipIter                float64
	UnloggedIter              float64
	PrototypeLoggedWritesLost uint64
}

// FullStackOnChip runs the comparison. Unlike LoggerModels (bare machine),
// this exercises Region.Log, page faults, log-segment paging and the
// kernel's fault handlers on both hardware designs.
func FullStackOnChip(sweep []uint64, iterations int) ([]FullStackPoint, error) {
	return sim.Map(len(sweep), func(i int) (FullStackPoint, error) {
		c := sweep[i]
		proto, err := runLoop(loopCfg{Compute: c, Writes: 1, Logged: true, Iterations: iterations})
		if err != nil {
			return FullStackPoint{}, err
		}
		chip, err := runLoop(loopCfg{Compute: c, Writes: 1, Logged: true, OnChip: true, Iterations: iterations})
		if err != nil {
			return FullStackPoint{}, err
		}
		plain, err := runLoop(loopCfg{Compute: c, Writes: 1, Logged: false, Iterations: iterations})
		if err != nil {
			return FullStackPoint{}, err
		}
		return FullStackPoint{
			Compute:       c,
			PrototypeIter: proto.CyclesPerIter,
			OnChipIter:    chip.CyclesPerIter,
			UnloggedIter:  plain.CyclesPerIter,
		}, nil
	})
}

// FormatFullStack renders the comparison.
func FormatFullStack(points []FullStackPoint) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			d(p.Compute), f1(p.PrototypeIter), f1(p.OnChipIter), f1(p.UnloggedIter),
		})
	}
	return Table([]string{"c (cycles)", "prototype/iter", "on-chip/iter", "unlogged/iter"}, rows)
}
