package crashtest

import (
	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/fault"
	"lvm/internal/lvmd"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// runLvmd drives one lvmd shard core — the multi-tenant arena with slot
// directory, checkpointed compaction and group-commit fences — under the
// fault matrix. The daemon acknowledges a client commit only after the
// SyncBatch fence, so the crash window this scenario aims at is the gap
// between transactions applied to the arena and the group-commit drain:
// acked transactions must recover exactly, and the recovered state must
// equal the acked state plus an in-order prefix of the in-flight ledger
// (the transactions applied but not yet fenced at the kill). Recovery is
// the shard's own path: last committed checkpoint image, then a replay
// of the marker-committed log tail.
func runLvmd(t template, plan fault.Plan, short bool) (outcome, uint64) {
	const (
		slots      = 16
		slotSize   = 4096
		groupEvery = 6 // transactions per ack fence
		compactAft = 8 // fences between compaction attempts
	)
	stores := 4096
	if short {
		stores = 1024
	}
	disk := ramdisk.New()
	cfg := lvmd.CoreConfig{
		Slots:        slots,
		SlotSize:     slotSize,
		LogPages:     uint32(3*stores*16/int(core.PageSize)) + 8,
		Disk:         disk,
		AbsorbWindow: ctAbsorbWindow, GroupSize: ctGroupSize, GroupDeadline: ctGroupDeadline,
	}
	c, err := lvmd.NewCore(cfg, nil, 0)
	must(err, "setup")
	c.EnableTuning()
	arenaSize, err := cfg.ArenaSize()
	must(err, "setup")

	in := fault.New(plan)
	in.Arm(c.Sys, disk, c.LogSeg, c.Arena, lvmd.MarkerLimit)

	acked := recovery.NewShadow(arenaSize)
	var ackedSeq uint32
	var inflight [][]write // applied-but-unfenced transactions, in order
	var stopErr error
	crash := untilCrash(func() {
		fence := func() bool {
			if stopErr = c.SyncBatch(); stopErr != nil {
				return false
			}
			for _, txn := range inflight {
				for _, wv := range txn {
					acked.Write32(wv.off, wv.val)
				}
			}
			inflight = inflight[:0]
			ackedSeq = c.Seq()
			return true
		}
		wr := fault.NewRNG(plan.Seed + 1)
		// Every tenant opens first; the directory writes are logged
		// transactions like any other and join the ledger.
		for seg := uint64(1); seg <= slots; seg++ {
			slot, _, err := c.Open(seg)
			if err != nil {
				stopErr = err
				return
			}
			dir := lvmd.MarkerLimit + slot*8
			inflight = append(inflight, []write{
				{dir, uint32(seg)}, {dir + 4, uint32(seg >> 32)},
			})
		}
		if !fence() {
			return
		}
		fences := 0
		for s, txns := 0, 0; s < stores; {
			seg := uint64(wr.Intn(slots)) + 1
			n := 1 + wr.Intn(t.maxBatch)
			ws := make([]lvmd.Write, n)
			txn := make([]write, n)
			for j := 0; j < n; j++ {
				off := uint32(wr.Intn(slotSize/4)) * 4
				val := uint32(wr.Next())
				ws[j] = lvmd.Write{Off: off, Val: val}
				slot, _ := c.Lookup(seg)
				txn[j] = write{c.SlotOff(slot) + off, val}
				s++
			}
			if _, err := c.Commit(seg, ws); err != nil {
				stopErr = err
				return
			}
			inflight = append(inflight, txn)
			txns++
			if txns%groupEvery == 0 {
				if !fence() {
					return
				}
				fences++
				if fences%compactAft == 0 {
					// A refused compaction leaves the log intact; recovery
					// just replays a longer tail.
					_, _ = c.MaybeCompact() //errgate:ok — refusal is non-fatal here
				}
			}
		}
		fence()
	})
	elapsed := c.Sys.Elapsed()

	// Recovery: the shard's restart path — checkpoint image election plus
	// marker-committed tail replay into a fresh segment.
	in.SetRecoveryMode(true)
	dst := core.NewNamedSegment(c.Sys, "ct-recovered", arenaSize, nil)
	rr, err := compact.Recover(c.Sys, compact.RecoverOptions{
		Disk: recovery.NewRetryDisk(disk, nil, c.Sys.DeviceShard()),
		Log:  c.LogSeg, Data: c.Arena, Dst: dst, MarkerLimit: lvmd.MarkerLimit,
	})
	must(err, "recovery")
	rep := in.Report()

	verdict, diffs := classifyPrefix(acked, ackedSeq, inflight, dst, rr.Result, rep)
	return mkOutcome(t.name, plan, verdict, crash, stopErr, rep, rr.Result, diffs), elapsed
}

// classifyPrefix verdicts a shard-core recovery against the ack fence
// contract: the recovered image must equal the acked state plus some
// in-order prefix of the in-flight ledger (group commit drains records
// in order and the marker protocol applies transactions atomically, so
// nothing else is a legal outcome). The recovered sequence must also
// reach at least the last acked fence — an acked transaction missing
// from the image would be a durability lie, reported distinctly as
// FAIL-acked.
func classifyPrefix(acked *recovery.Shadow, ackedSeq uint32, inflight [][]write,
	dst *core.Segment, res recovery.Result, rep *fault.Report) (string, int) {
	if res.Quarantined() && !rep.ExplainsQuarantine(res.QuarantinedFrom) {
		return "FAIL-quarantine", 0
	}
	// The checkpoint image carries the marker word of its capture moment;
	// the replayed tail can only move it forward.
	imgSeq := dst.Read32(0) &^ recovery.MarkerCommit
	effectiveSeq := res.LastSeq
	if imgSeq > effectiveSeq {
		effectiveSeq = imgSeq
	}
	shadow := acked.Clone()
	for k := 0; k <= len(inflight); k++ {
		if k > 0 {
			for _, wv := range inflight[k-1] {
				shadow.Write32(wv.off, wv.val)
			}
		}
		diff := shadow.Diff(dst, lvmd.MarkerLimit)
		if len(diff) != 0 {
			continue
		}
		if effectiveSeq < ackedSeq {
			return "FAIL-acked", 0
		}
		if k == 0 {
			if res.Quarantined() {
				return "DEGRADED-quarantine", 0
			}
			return "RECOVERED", 0
		}
		return "RECOVERED-INDOUBT", 0
	}
	diff := acked.Diff(dst, lvmd.MarkerLimit)
	if effectiveSeq < ackedSeq {
		return "FAIL-acked", len(diff)
	}
	if explained(diff, rep) {
		return "DEGRADED", len(diff)
	}
	if rep.AnyMarkerDamage() {
		return "DEGRADED-marker", len(diff)
	}
	return "FAIL", len(diff)
}
