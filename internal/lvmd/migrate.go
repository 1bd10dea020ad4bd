package lvmd

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"lvm/internal/core"
	"lvm/internal/recovery"
)

// Live segment migration moves one tenant slot between shards while
// clients keep committing, in three phases:
//
//  1. Snapshot: the source dumps the slot image and starts capturing
//     subsequent commits; the destination installs the image into a
//     receiving-marked slot (a copy that holds data but does not own the
//     segment yet).
//  2. Chase: captured deltas stream to the destination until the lag per
//     round falls under a threshold.
//  3. Cutover (the measured pause): the source freezes the segment
//     (commits answer StatusMoved and clients re-resolve), the final
//     delta lands on the destination and is fenced durable, the source
//     commits its tombstone, the destination activates its entry, and
//     the server flips the route.
//
// Crash rule — "recoverable from exactly one side": the destination's
// data is fenced complete strictly before the source's tombstone
// commits, and the tombstone commits strictly before the activation.
// An untombstoned source therefore always owns the truth (its freeze
// and capture state are volatile, so a crash simply aborts the
// migration), and a receiving copy serves only when the source's
// durable tombstone proves it was complete.

// writeDirEntry stores one slot-directory entry inside the caller's open
// marker transaction.
func (c *ShardCore) writeDirEntry(slot uint32, e uint64) {
	dir := c.base + core.Addr(MarkerLimit+slot*dirEntryBytes)
	c.P.Store32(dir, uint32(e))
	c.P.Store32(dir+4, uint32(e>>32))
}

// SlotImage dumps a tenant slot's current bytes — the migration
// snapshot. Durable state only after the caller's last SyncBatch, so run
// it at a batch boundary.
func (c *ShardCore) SlotImage(segID uint64) ([]byte, error) {
	slot, ok := c.slots[segID]
	if !ok {
		return nil, fmt.Errorf("lvmd: snapshot of unopened segment %d", segID)
	}
	img := make([]byte, c.cfg.SlotSize)
	c.Arena.ReadInto(c.SlotOff(slot), img)
	return img, nil
}

// StartCapture begins recording every committed write to segID so the
// chase phase can forward them. Volatile by design: a crash drops the
// capture along with the migration it served.
func (c *ShardCore) StartCapture(segID uint64) {
	c.captureID = segID
	c.captureBuf = nil
}

// TakeDelta returns and clears the captured writes.
func (c *ShardCore) TakeDelta() []Write {
	d := c.captureBuf
	c.captureBuf = nil
	return d
}

// CaptureLag reports the captured writes not yet taken.
func (c *ShardCore) CaptureLag() int { return len(c.captureBuf) }

// StopCapture ends the capture.
func (c *ShardCore) StopCapture() {
	c.captureID = 0
	c.captureBuf = nil
}

// Freeze makes commits to segID answer ErrMoved (StatusMoved on the
// wire) for the cutover window. Volatile: a crash un-freezes.
func (c *ShardCore) Freeze(segID uint64) { c.frozen = segID }

// Unfreeze lifts the cutover freeze (abort path).
func (c *ShardCore) Unfreeze() { c.frozen = 0 }

// ImportImage installs a migrated slot image on the destination: a
// receiving-marked directory entry (allocating a slot, or reusing the
// one a tombstone or aborted import left), then every word of the image
// in one marker transaction — every word, because an aborted earlier
// import may have left the slot dirty. Durable after the next SyncBatch.
func (c *ShardCore) ImportImage(segID uint64, img []byte) error {
	if segID == 0 || segID&dirFlagMask != 0 {
		return fmt.Errorf("lvmd: import of invalid segment ID %#x", segID)
	}
	if uint32(len(img)) != c.cfg.SlotSize {
		return fmt.Errorf("lvmd: import image %d bytes, slot %d", len(img), c.cfg.SlotSize)
	}
	slot, ok := c.slots[segID]
	if ok && !c.receiving[segID] {
		return fmt.Errorf("lvmd: import of segment %d this shard already serves", segID)
	}
	if !ok {
		if s, gone := c.moved[segID]; gone {
			slot = s // the segment is migrating back: reuse its old slot
			delete(c.moved, segID)
		} else {
			if int(c.nextSlot) >= c.cfg.Slots {
				return ErrNoSlot
			}
			slot = c.nextSlot
			c.nextSlot++
		}
	}
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	c.writeDirEntry(slot, segID|receivingBit)
	va := c.base + core.Addr(c.SlotOff(slot))
	for off := uint32(0); off < c.cfg.SlotSize; off += 4 {
		c.P.Store32(va+core.Addr(off), binary.LittleEndian.Uint32(img[off:]))
	}
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	c.slots[segID] = slot
	c.receiving[segID] = true
	return nil
}

// Tombstone retires a migrated-away segment: the directory entry is
// rewritten to its tombstone in one marker transaction, the slot stays
// allocated (retired), and further operations answer ErrMoved. Call only
// after the destination's copy is fenced durable; durable after the next
// SyncBatch.
func (c *ShardCore) Tombstone(segID uint64) error {
	slot, ok := c.slots[segID]
	if !ok {
		return fmt.Errorf("lvmd: tombstone of unopened segment %d", segID)
	}
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	c.writeDirEntry(slot, segID|movedBit)
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	delete(c.slots, segID)
	delete(c.receiving, segID)
	c.moved[segID] = slot
	if c.frozen == segID {
		c.frozen = 0
	}
	if c.captureID == segID {
		c.StopCapture()
	}
	return nil
}

// Activate clears a receiving mark: the destination now owns the
// segment outright. Call only after the source's tombstone is fenced
// durable; durable after the next SyncBatch.
func (c *ShardCore) Activate(segID uint64) error {
	slot, ok := c.slots[segID]
	if !ok || !c.receiving[segID] {
		return fmt.Errorf("lvmd: activate of segment %d not in receiving state", segID)
	}
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	c.writeDirEntry(slot, segID)
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	delete(c.receiving, segID)
	return nil
}

// DirEntryInfo decodes a raw slot-directory entry into its segment ID
// and migration marks — for crash tooling that inspects recovered
// directory images without booting a core.
func DirEntryInfo(e uint64) (segID uint64, moved, receiving bool) {
	return e &^ dirFlagMask, e&movedBit != 0, e&receivingBit != 0
}

// Moved reports whether segID's tombstone is on this shard.
func (c *ShardCore) Moved(segID uint64) bool {
	_, ok := c.moved[segID]
	return ok
}

// Receiving reports whether segID is an unactivated inbound copy.
func (c *ShardCore) Receiving(segID uint64) bool { return c.receiving[segID] }

// Tenants lists the segment IDs this shard holds data for (owned and
// receiving), sorted.
func (c *ShardCore) Tenants() []uint64 {
	ids := make([]uint64, 0, len(c.slots))
	for id := range c.slots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MigrateReport measures one live migration.
type MigrateReport struct {
	SegID         uint64 `json:"seg_id"`
	From          int    `json:"from"`
	To            int    `json:"to"`
	ChaseRounds   int    `json:"chase_rounds"`
	SnapshotBytes int    `json:"snapshot_bytes"`
	DeltaWrites   int    `json:"delta_writes"`
	// PauseNS is the convergence pause: freeze to route flip, the window
	// in which the segment accepted no commits.
	PauseNS int64 `json:"pause_ns"`
}

// chaseThreshold is the captured-write lag under which the chase phase
// hands off to the cutover; chaseLimit bounds the rounds so a write rate
// that outruns the copier degrades to a longer pause, not a livelock.
const (
	chaseThreshold = 16
	chaseLimit     = 64
)

// Migrate moves segID from its current shard to shard `to` while clients
// keep committing. Each phase is one Shard.Exec, so the fence order the
// crash rule needs (destination data durable → source tombstone →
// destination activation → route flip) is the call order here. On error
// the migration aborts in place: capture and freeze are lifted and the
// source keeps serving; a receiving entry left on the destination is
// inert and is reused by a retry.
func (s *Server) Migrate(segID uint64, to int) (MigrateReport, error) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if to < 0 || to >= len(s.shards) {
		return MigrateReport{}, fmt.Errorf("lvmd: migrate to unknown shard %d", to)
	}
	src := s.route(segID)
	dst := s.shards[to]
	rep := MigrateReport{SegID: segID, From: src.ID, To: to}
	if src == dst {
		return rep, fmt.Errorf("lvmd: segment %d already on shard %d", segID, to)
	}
	stall := s.cfg.StallTimeout
	abort := func(err error) (MigrateReport, error) {
		_, _ = src.Exec(func(c *ShardCore) bool { //errgate:ok — best-effort abort cleanup
			c.Unfreeze()
			c.StopCapture()
			return false
		}, stall)
		return rep, err
	}
	step := func(sh *Shard, what string, fn func(c *ShardCore) bool) error {
		ran, err := sh.Exec(fn, stall)
		if err != nil {
			return fmt.Errorf("lvmd: migrate %s: %w", what, err)
		}
		if !ran {
			return fmt.Errorf("lvmd: migrate %s: shard %d refused", what, sh.ID)
		}
		return nil
	}

	// Phase 1 — snapshot the source slot and start capturing commits.
	var img []byte
	var cerr error
	if err := step(src, "snapshot", func(c *ShardCore) bool {
		img, cerr = c.SlotImage(segID)
		if cerr == nil {
			c.StartCapture(segID)
		}
		return false
	}); err != nil {
		return rep, err
	}
	if cerr != nil {
		return rep, cerr
	}
	rep.SnapshotBytes = len(img)
	if err := step(dst, "import", func(c *ShardCore) bool {
		cerr = c.ImportImage(segID, img)
		return cerr == nil
	}); err != nil {
		return abort(err)
	}
	if cerr != nil {
		return abort(cerr)
	}

	// Phase 2 — chase the capture until a round's delta is small.
	for {
		rep.ChaseRounds++
		var delta []Write
		if err := step(src, "chase", func(c *ShardCore) bool {
			delta = c.TakeDelta()
			return false
		}); err != nil {
			return abort(err)
		}
		if len(delta) > 0 {
			rep.DeltaWrites += len(delta)
			if err := step(dst, "delta", func(c *ShardCore) bool {
				_, cerr = c.Commit(segID, delta)
				return cerr == nil
			}); err != nil {
				return abort(err)
			}
			if cerr != nil {
				return abort(cerr)
			}
		}
		if len(delta) <= chaseThreshold || rep.ChaseRounds >= chaseLimit {
			break
		}
	}

	// Phase 3 — cutover: freeze, final delta (fenced durable on the
	// destination by its Exec), tombstone, activate, flip the route.
	t0 := time.Now()
	if err := step(src, "freeze", func(c *ShardCore) bool {
		c.Freeze(segID)
		return false
	}); err != nil {
		return abort(err)
	}
	var final []Write
	if err := step(src, "final-delta", func(c *ShardCore) bool {
		final = c.TakeDelta()
		c.StopCapture()
		return false
	}); err != nil {
		return abort(err)
	}
	if len(final) > 0 {
		rep.DeltaWrites += len(final)
		if err := step(dst, "final-apply", func(c *ShardCore) bool {
			_, cerr = c.Commit(segID, final)
			return cerr == nil
		}); err != nil {
			return abort(err)
		}
		if cerr != nil {
			return abort(cerr)
		}
	}
	if err := step(src, "tombstone", func(c *ShardCore) bool {
		cerr = c.Tombstone(segID)
		return cerr == nil
	}); err != nil {
		return abort(err)
	}
	if cerr != nil {
		return abort(cerr)
	}
	if err := step(dst, "activate", func(c *ShardCore) bool {
		cerr = c.Activate(segID)
		return cerr == nil
	}); err != nil {
		return rep, err // past the tombstone: the destination owns the data
	}
	if cerr != nil {
		return rep, cerr
	}
	s.routeMu.Lock()
	if s.homeShard(segID) == to {
		delete(s.reroute, segID)
	} else {
		s.reroute[segID] = to
	}
	s.routeMu.Unlock()
	rep.PauseNS = time.Since(t0).Nanoseconds()
	s.migrations.Add(1)
	return rep, nil
}
