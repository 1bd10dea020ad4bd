package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/fault"
	"lvm/internal/lvmd"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// migCuts are the kill points of the live-migration fence sequence. The
// daemon dies whole, so a "kill the source at phase 2" plan is the cut
// where the source's fence had not yet committed while the destination's
// had — the durable views the two sides are left with are what matters.
var migCuts = []string{
	"import-unfenced",    // destination copy applied, not yet durable
	"delta-unfenced",     // chase delta applied on the destination, not yet durable
	"tombstone-unfenced", // source tombstone written, not yet durable
	"tombstone-fenced",   // source retired durably, destination not yet activated
	"activate-unfenced",  // destination activation written, not yet durable
	"post-cutover",       // the full fence sequence completed
}

// runMigrate proves the migration crash rule: kill the daemon at each
// cut of the cutover fence sequence, recover both shards from their
// durable state through the shard restart path, and demand that the
// ownership rule — an untombstoned source always owns; a receiving copy
// serves only when the other side's durable tombstone proves it was
// complete — yields exactly one serving side, whose slot bytes equal the
// acked model exactly. A bystander tenant on the source must ride
// through untouched. Everything is single-threaded simulation; the two
// executions of a plan must produce byte-identical lines.
func runMigrate(t template, plan fault.Plan, short bool) (outcome, uint64) {
	const (
		slots    = 4
		slotSize = 4096
		migSeg   = uint64(7)
		calmSeg  = uint64(3)
	)
	txns := 40
	if short {
		txns = 12
	}
	cut := migCuts[plan.CrashAtCycle%uint64(len(migCuts))]
	mkCore := func() (*lvmd.ShardCore, ramdisk.Device, error) {
		disk := ramdisk.New()
		c, err := lvmd.NewCore(lvmd.CoreConfig{
			Slots:    slots,
			SlotSize: slotSize,
			LogPages: uint32(6*txns*t.maxBatch*16/int(core.PageSize)) + 16,
			Disk:     disk,
		}, nil, 0)
		return c, disk, err
	}
	src, srcDisk, err := mkCore()
	if err != nil {
		return failf(plan, "src setup err=%v", err), 0
	}
	dst, dstDisk, err := mkCore()
	if err != nil {
		return failf(plan, "dst setup err=%v", err), 0
	}

	wr := fault.NewRNG(plan.Seed + 1)
	model := map[uint64]map[uint32]uint32{migSeg: {}, calmSeg: {}}
	commit := func(c *lvmd.ShardCore, seg uint64, record bool) error {
		n := 1 + wr.Intn(t.maxBatch)
		ws := make([]lvmd.Write, n)
		for j := range ws {
			ws[j] = lvmd.Write{Off: uint32(wr.Intn(slotSize/4)) * 4, Val: uint32(wr.Next())}
		}
		if _, err := c.Commit(seg, ws); err != nil {
			return err
		}
		if record {
			for _, w := range ws {
				model[seg][w.Off] = w.Val
			}
		}
		return nil
	}
	step := 0
	run := func(f func() error) {
		if err == nil {
			step++
			err = f()
		}
	}
	fence := func(c *lvmd.ShardCore) func() error { return c.SyncBatch }

	var img []byte
	var delta []lvmd.Write
	killed := false
	kill := func(at string) func() error {
		return func() error {
			if cut == at {
				killed = true
			}
			return nil
		}
	}
	script := []func() error{
		// Workload phase A: both tenants live on the source, fenced.
		func() error { _, _, e := src.Open(migSeg); return e },
		func() error { _, _, e := src.Open(calmSeg); return e },
		fence(src),
		func() error {
			for i := 0; i < txns; i++ {
				seg := migSeg
				if i%3 == 2 {
					seg = calmSeg
				}
				if e := commit(src, seg, true); e != nil {
					return e
				}
			}
			return nil
		},
		fence(src),
		// Phase 1 — snapshot + capture; the copy lands receiving-marked.
		func() error { var e error; img, e = src.SlotImage(migSeg); return e },
		func() error { src.StartCapture(migSeg); return nil },
		// Workload phase B: commits keep landing while the copy exists.
		func() error {
			for i := 0; i < txns/2; i++ {
				if e := commit(src, migSeg, true); e != nil {
					return e
				}
			}
			return commit(src, calmSeg, true)
		},
		fence(src),
		func() error { return dst.ImportImage(migSeg, img) },
		kill("import-unfenced"),
		fence(dst), // F1: destination copy durable
		// Phase 2 — chase: forward the captured writes.
		func() error {
			delta = src.TakeDelta()
			if len(delta) == 0 {
				return nil
			}
			_, e := dst.Commit(migSeg, delta)
			return e
		},
		kill("delta-unfenced"),
		fence(dst),
		// Phase 3 — cutover: freeze, final delta (none can arrive after the
		// freeze), tombstone, activate.
		func() error { src.Freeze(migSeg); return nil },
		func() error {
			final := src.TakeDelta()
			src.StopCapture()
			if len(final) != 0 {
				return fmt.Errorf("unexpected post-freeze delta of %d writes", len(final))
			}
			return nil
		},
		func() error { return src.Tombstone(migSeg) },
		kill("tombstone-unfenced"),
		fence(src), // F2: source retired durably
		kill("tombstone-fenced"),
		func() error { return dst.Activate(migSeg) },
		kill("activate-unfenced"),
		fence(dst), // F3: destination owns durably
		kill("post-cutover"),
	}
	for _, f := range script {
		run(f)
		if killed {
			break
		}
	}
	if err != nil {
		return failf(plan, "script step %d err=%v", step, err), 0
	}
	if !killed {
		return failf(plan, "cut %q never fired", cut), 0
	}
	elapsed := src.Sys.Elapsed() + dst.Sys.Elapsed()

	// The kill: both cores' volatile state is gone; recover each side from
	// its durable checkpoint + marker-committed log tail, then reboot
	// cores from the recovered images.
	arenaSize, err := (lvmd.CoreConfig{Slots: slots, SlotSize: slotSize}).ArenaSize()
	if err != nil {
		return failf(plan, "arena err=%v", err), 0
	}
	reboot := func(c *lvmd.ShardCore, disk ramdisk.Device, name string) (*lvmd.ShardCore, error) {
		dseg := core.NewNamedSegment(c.Sys, "ct-recovered-"+name, arenaSize, nil)
		rr, err := compact.Recover(c.Sys, compact.RecoverOptions{
			Disk: recovery.NewRetryDisk(disk, nil, c.Sys.DeviceShard()),
			Log:  c.LogSeg, Data: c.Arena, Dst: dseg, MarkerLimit: lvmd.MarkerLimit,
		})
		if err != nil {
			return nil, fmt.Errorf("%s recover: %w", name, err)
		}
		rimg := make([]byte, arenaSize)
		dseg.ReadInto(0, rimg)
		seq := rr.Result.LastSeq
		if imgSeq := binary.LittleEndian.Uint32(rimg) &^ recovery.MarkerCommit; imgSeq > seq {
			seq = imgSeq
		}
		// Stamp a committed marker so the rebooted core resumes cleanly.
		rimg[0], rimg[1], rimg[2], rimg[3] = byte(seq|recovery.MarkerCommit),
			byte((seq|recovery.MarkerCommit)>>8), byte((seq|recovery.MarkerCommit)>>16),
			byte((seq|recovery.MarkerCommit)>>24)
		return lvmd.NewCore(lvmd.CoreConfig{
			Slots: slots, SlotSize: slotSize,
			LogPages: uint32(6*txns*t.maxBatch*16/int(core.PageSize)) + 16,
			Disk:     disk,
		}, rimg, seq)
	}
	src2, err := reboot(src, srcDisk, "src")
	if err != nil {
		return failf(plan, "%v", err), elapsed
	}
	dst2, err := reboot(dst, dstDisk, "dst")
	if err != nil {
		return failf(plan, "%v", err), elapsed
	}

	// Ownership rule over the recovered directories.
	srcMoved, dstRecv := src2.Moved(migSeg), dst2.Receiving(migSeg)
	srcServes := !srcMoved && !src2.Receiving(migSeg) && hasTenant(src2, migSeg)
	dstServes := false
	if hasTenant(dst2, migSeg) {
		if dstRecv {
			dstServes = srcMoved
		} else {
			dstServes = true
		}
	}

	verdict := "RECOVERED"
	note := ""
	fail := func(f string, args ...any) {
		if verdict == "RECOVERED" {
			verdict, note = "FAIL", fmt.Sprintf(f, args...)
		}
	}
	serving := "none"
	switch {
	case srcServes && dstServes:
		fail("both sides serve segment %d: split ownership", migSeg)
	case !srcServes && !dstServes:
		fail("no side serves segment %d: segment lost", migSeg)
	case srcServes:
		serving = "src"
	default:
		serving = "dst"
	}

	diffs := 0
	if serving != "none" {
		owner := src2
		if serving == "dst" {
			owner = dst2
			if src2.Receiving(migSeg) || (hasTenant(src2, migSeg) && !src2.Moved(migSeg)) {
				fail("destination serves but source still claims segment %d", migSeg)
			}
			// Activate a boot-resolved receiving copy the way the server's
			// ownership scan does, then prove the tombstoned source fences
			// clients off.
			if owner.Receiving(migSeg) {
				if e := owner.Activate(migSeg); e != nil {
					fail("boot activation: %v", e)
				}
			}
			if _, e := src2.Commit(migSeg, []lvmd.Write{{Off: 0, Val: 1}}); !errors.Is(e, lvmd.ErrMoved) {
				fail("tombstoned source accepted a commit: err=%v", e)
			}
		}
		for off, val := range model[migSeg] {
			b, e := owner.Read(migSeg, off, 4)
			if e != nil {
				fail("owner read: %v", e)
				break
			}
			if binary.LittleEndian.Uint32(b) != val {
				diffs++
			}
		}
		for off, val := range model[calmSeg] {
			b, e := src2.Read(calmSeg, off, 4)
			if e != nil {
				fail("bystander read: %v", e)
				break
			}
			if binary.LittleEndian.Uint32(b) != val {
				diffs++
			}
		}
		if diffs != 0 {
			fail("acked words lost diff=%d", diffs)
		}
		// The serving side must keep working: one more fenced commit.
		if e := commit(owner, migSeg, false); e != nil {
			fail("post-recovery commit: %v", e)
		} else if e := owner.SyncBatch(); e != nil {
			fail("post-recovery fence: %v", e)
		}
	}

	line := fmt.Sprintf(
		"plan=%s seed=%#x verdict=%s cut=%s serving=%s delta=%d src_moved=%v dst_recv=%v diff=%d",
		t.name, plan.Seed, verdict, cut, serving, len(delta), srcMoved, dstRecv, diffs)
	if note != "" {
		line += " err=" + note
	}
	return outcome{line: line, ok: verdict == "RECOVERED"}, elapsed
}

func hasTenant(c *lvmd.ShardCore, seg uint64) bool {
	for _, id := range c.Tenants() {
		if id == seg {
			return true
		}
	}
	return false
}
