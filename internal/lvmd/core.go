package lvmd

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"syscall"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
	"lvm/internal/wire"
)

// MarkerLimit is the marker-word area of every shard arena: stores below
// it drive the recovery marker protocol (one transaction per client
// commit), exactly as internal/rlvm and the crashtest log workload use
// it.
const MarkerLimit = uint32(16)

// dirEntryBytes is one slot-directory entry: the tenant segment ID (0 =
// free). The directory lives in the arena right after the marker area
// and is written with logged stores inside the open transaction, so slot
// assignments recover with the data — no side-channel catalog to keep
// consistent.
const dirEntryBytes = uint32(8)

// dirFlagMask covers the top two bits of a directory entry, which are
// reserved: Open refuses segment IDs that reach them, and a recovered
// directory with either bit set is refused at boot. (An earlier format
// used them to mark a slot its segment had left or was still arriving
// in; no slot in such a state can be served.)
const dirFlagMask = uint64(3) << 62

// maxSlotSize is the largest slot a read response can carry whole.
var maxSlotSize = uint32(wire.MaxPayload - wire.Size(&wire.ReadResp{}))

// CoreConfig sizes one shard's deterministic simulation.
type CoreConfig struct {
	// Slots is the tenant-segment capacity; SlotSize the bytes per tenant
	// (a multiple of 4).
	Slots    int
	SlotSize uint32
	// LogPages sizes the hardware log; compaction triggers at half.
	LogPages uint32
	// Disk holds the shard's checkpoint area (compact.Manager slots).
	Disk ramdisk.Device
	// DiskBase is the checkpoint area's offset on Disk.
	DiskBase uint64
	// Tail, when non-nil, durably mirrors the log for restart recovery.
	// nil runs the shard without cross-process durability (the crashtest
	// scenario recovers in-process from the surviving log).
	Tail *TailFile
	// Epoch, when non-zero, is an explicit fencing epoch from a promotion
	// grant: the shard serves exactly it. Zero lets the core elect one
	// strictly above the checkpoint generation, the epoch the last
	// committed checkpoint persisted and the epoch the tail header
	// persisted, so a restarted shard — even one that was promoted to a
	// high granted epoch in a previous life — is never fenced out by
	// replicas floored at that epoch.
	Epoch uint32
	// AbsorbWindow/GroupSize/GroupDeadline tune the bus logger once
	// EnableTuning is called (zero values leave the stage off).
	AbsorbWindow  int
	GroupSize     int
	GroupDeadline uint64
}

func (c *CoreConfig) fill() error {
	if c.Slots <= 0 {
		c.Slots = 64
	}
	if c.Slots > 1<<16 {
		return fmt.Errorf("lvmd: %d slots exceeds the directory limit", c.Slots)
	}
	if c.SlotSize == 0 {
		c.SlotSize = 4096
	}
	if c.SlotSize%4 != 0 {
		return fmt.Errorf("lvmd: slot size %d is not word-aligned", c.SlotSize)
	}
	if c.SlotSize > maxSlotSize {
		// A whole-slot read must fit one response frame; a larger slot
		// would send a frame every client rejects, desynchronizing the
		// connection.
		return fmt.Errorf("lvmd: slot size %d exceeds %d, the most one read-response frame carries", c.SlotSize, maxSlotSize)
	}
	if c.LogPages == 0 {
		c.LogPages = 1024
	}
	return nil
}

// Write is one word store of a client transaction, relative to the
// tenant slot.
type Write struct {
	Off uint32
	Val uint32
}

// ShardCore is one shard's single-threaded simulation: every method must
// be called from the shard's owning goroutine (or test), never
// concurrently. It hosts the arena (marker words + slot directory +
// tenant slots), the hardware log, the compaction manager, and the
// durable tail mirror.
type ShardCore struct {
	Sys    *core.System
	Arena  *core.Segment
	LogSeg *core.Segment
	P      *core.Process
	Mgr    *compact.Manager

	cfg      CoreConfig
	base     core.Addr
	slotBase uint32
	seq      uint32
	slots    map[uint64]uint32 // segID → slot index
	nextSlot uint32

	reader *core.LogReader // tail-capture cursor (Tail != nil only)
	ship   *coreShip
	sh     *metrics.Shard
	lost   uint64 // LostRecords watermark already accounted
}

// coreShip is the compact.Shipper the manager notifies: it cuts the
// tail mirror up to the manager's new logical base, forwards the cut to
// the optional replication shipper, and re-seeks the capture reader
// (physical offsets slide with the log).
type coreShip struct {
	c   *ShardCore
	ext compact.Shipper // the shard's logship.Shipper, when serving
}

func (s *coreShip) MinAcked() uint64 {
	if s.ext != nil {
		return s.ext.MinAcked()
	}
	return ^uint64(0)
}

func (s *coreShip) Compacted(cutRecords uint64) error {
	if s.c.cfg.Tail != nil {
		if err := s.c.cutTail(); err != nil {
			return err
		}
		s.c.reader.Sync()
		phys := uint64(s.c.reader.Offset())
		cutBytes := cutRecords * logrec.Size
		if cutBytes > phys {
			return fmt.Errorf("lvmd: compaction cut %d bytes but capture scanned %d", cutBytes, phys)
		}
		if err := s.c.reader.Seek(uint32(phys - cutBytes)); err != nil {
			return fmt.Errorf("lvmd: capture reseek: %w", err)
		}
	}
	if s.ext != nil {
		return s.ext.Compacted(cutRecords)
	}
	return nil
}

// ArenaSize reports the arena bytes a config implies, page-rounded to
// match what the segment will report (subscribers size their replicas
// from this, and the logship handshake rejects a size mismatch).
func (cfg CoreConfig) ArenaSize() (uint32, error) {
	if err := cfg.fill(); err != nil {
		return 0, err
	}
	slotBase := slotBaseFor(cfg.Slots)
	size := uint64(slotBase) + uint64(cfg.Slots)*uint64(cfg.SlotSize)
	size = (size + core.PageSize - 1) &^ uint64(core.PageSize-1)
	if size > 1<<31 {
		return 0, fmt.Errorf("lvmd: arena of %d slots × %d bytes too large", cfg.Slots, cfg.SlotSize)
	}
	return uint32(size), nil
}

func slotBaseFor(slots int) uint32 {
	b := MarkerLimit + uint32(slots)*dirEntryBytes
	return (b + 15) &^ 15
}

// NewCore boots a fresh shard (img nil), or one from an arena image
// whose provenance it cannot check — a promoted replica's, or any image
// not paired with the RecoverImage walk of this shard's own files. Such
// an image becomes the arena (the core takes ownership of it, as
// RestartCore does), the slot directory and transaction sequence
// are rebuilt from it, and, because the state must be durable before
// anything is acknowledged on top of it, a checkpoint of it is committed
// and then the tail mirror is emptied (RestartCore's rewriting path).
//
// The bus-logger tuning stages stay off until EnableTuning, so a core a
// test drives directly logs one record per issued store.
func NewCore(cfg CoreConfig, img []byte, seq uint32) (*ShardCore, error) {
	return RestartCore(cfg, img, RecoverInfo{Seq: seq})
}

// RestartCore boots a shard from RecoverImage's result over the same
// cfg.Disk and cfg.Tail. It takes ownership of img: the image becomes
// the arena's memory (vm.Segment.AdoptImage), page for page, with no
// copy, so the caller must not use img afterwards. The serving epoch is
// elected first: a grant (cfg.Epoch) exactly, otherwise one past the
// checkpoint generation and every epoch the checkpoint area persisted
// (headers and stamps).
//
// When the walk was intact (info.Intact), the sealed checkpoint plus the
// mirror already are the recovered state, in one logical frame. The
// core keeps the checkpoint and the mirror as they are, seeds its log's
// logical base at the mirror's end, and makes the elected epoch durable
// with one epoch stamp in the checkpoint area and one sync
// (compact.Manager.StampEpoch). The stamp goes to the small checkpoint
// file rather than the mirror's header: a sync of the mirror would also
// wait for whatever of its megabytes is not yet on disk.
//
// Otherwise (a quarantined walk, or a checkpoint outside the mirror's
// frame) it rewrites: a checkpoint of the image first, at logical offset
// L = max(mirror end, checkpoint watermark), then the mirror is reset to
// start at L. The frame therefore only moves forward, and a crash
// between the two steps finds a checkpoint whose watermark lies at or
// past the old mirror's end — nothing of the old mirror is replayed. An image with transactions but
// no logical history in this directory (a promoted replica booting in a
// fresh one) opens its frame at seq records, so the shipper's base is
// past zero and a fresh subscriber is caught up by snapshot.
//
// lvmd.restart_syncs counts the fsyncs either path issued.
func RestartCore(cfg CoreConfig, img []byte, info RecoverInfo) (*ShardCore, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Disk == nil {
		return nil, errors.New("lvmd: CoreConfig.Disk is required")
	}
	arenaSize, err := cfg.ArenaSize()
	if err != nil {
		return nil, err
	}
	if img != nil && uint32(len(img)) != arenaSize {
		return nil, fmt.Errorf("lvmd: recovered image %d bytes, arena %d", len(img), arenaSize)
	}
	keep := img != nil && info.Intact && cfg.Tail != nil
	// base is the logical log offset of the new log's byte 0.
	var base uint64
	if cfg.Tail != nil {
		base = cfg.Tail.CutBase() + cfg.Tail.Size()
		if img != nil && !keep {
			base = max(base, info.Watermark)
			if base == 0 {
				base = uint64(info.Seq) * logrec.Size
			}
		}
	}
	disk := &syncCounter{Device: cfg.Disk}
	arenaPages := (arenaSize + core.PageSize - 1) / core.PageSize
	sys := core.NewSystem(core.Config{
		NumCPUs:   1,
		MemFrames: int(arenaPages) + int(cfg.LogPages) + 512,
	})
	arena := core.NewNamedSegment(sys, "lvmd-arena", arenaSize, nil)
	arena.SetNoAbsorbLimit(MarkerLimit) // marker words are barriers, never coalesced
	reg := core.NewStdRegion(sys, arena)
	ls := core.NewLogSegment(sys, cfg.LogPages)
	if err := reg.Log(ls); err != nil {
		return nil, fmt.Errorf("lvmd: log binding: %w", err)
	}
	as := sys.NewAddressSpace()
	va, err := reg.Bind(as, 0)
	if err != nil {
		return nil, fmt.Errorf("lvmd: arena binding: %w", err)
	}
	c := &ShardCore{
		Sys:      sys,
		Arena:    arena,
		LogSeg:   ls,
		P:        sys.NewProcess(0, as),
		cfg:      cfg,
		base:     va,
		slotBase: slotBaseFor(cfg.Slots),
		slots:    make(map[uint64]uint32),
		sh:       sys.DeviceShard(),
	}
	c.ship = &coreShip{c: c}
	c.Mgr, err = compact.New(sys, compact.Options{
		Data: arena, Log: ls, Disk: disk, DiskBase: cfg.DiskBase, Ship: c.ship, CutBase: base,
	})
	if err != nil {
		return nil, err
	}
	// Serving-epoch election, before anything can persist it: an explicit
	// grant serves exactly; otherwise advance strictly past the committed
	// checkpoint generation and every epoch an earlier incarnation
	// persisted (Mgr.Epoch: checkpoint headers and epoch stamps). A shard
	// promoted to a high granted epoch in a previous incarnation therefore
	// restarts above it instead of being fenced out by its own replicas.
	// (Legacy headers read epoch 0, reproducing the generation-as-epoch
	// numbering.)
	if cfg.Epoch != 0 {
		c.Mgr.SetEpoch(cfg.Epoch)
	} else {
		c.Mgr.SetEpoch(max(c.Mgr.Seq(), c.Mgr.Epoch()) + 1)
	}
	if cfg.Tail != nil {
		c.reader = core.NewLogReader(sys, ls)
	}
	if img == nil {
		return c, nil
	}
	if err := c.rebuildSlots(img); err != nil {
		return nil, err
	}
	arena.AdoptImage(img)
	c.seq = info.Seq
	c.sh.Inc(metrics.LvmdRecoveries)
	var tailSyncs uint64
	if keep {
		if err := c.Mgr.StampEpoch(nil); err != nil {
			return nil, fmt.Errorf("lvmd: restart epoch: %w", err)
		}
	} else {
		if err := c.Mgr.Checkpoint(nil); err != nil {
			return nil, fmt.Errorf("lvmd: post-recovery checkpoint: %w", err)
		}
		if t := cfg.Tail; t != nil {
			before := t.Syncs()
			if err := t.Reset(base); err != nil {
				return nil, fmt.Errorf("lvmd: post-recovery tail reset: %w", err)
			}
			tailSyncs = t.Syncs() - before
		}
	}
	c.sh.Add(metrics.LvmdRestartSyncs, disk.syncs+tailSyncs)
	return c, nil
}

// syncCounter counts a checkpoint device's syncs (lvmd.restart_syncs).
type syncCounter struct {
	ramdisk.Device
	syncs uint64
}

func (d *syncCounter) TrySync(cpu *machine.CPU) error {
	d.syncs++
	return d.Device.TrySync(cpu)
}

// readDirectory decodes a recovered image's slot directory of `slots`
// entries: ids[k] is the segment in slot k. Entries are allocated
// densely, so the first zero entry ends it. An entry with a reserved
// flag bit set is refused: no segment ID may carry one.
func readDirectory(img []byte, slots int) (ids []uint64, err error) {
	if end := int(MarkerLimit) + slots*int(dirEntryBytes); len(img) < end {
		return nil, fmt.Errorf("lvmd: %d-byte image is shorter than its %d-slot directory", len(img), slots)
	}
	for i := 0; i < slots; i++ {
		e := binary.LittleEndian.Uint64(img[MarkerLimit+uint32(i)*dirEntryBytes:])
		if e == 0 {
			break
		}
		if e&dirFlagMask != 0 {
			return nil, fmt.Errorf("lvmd: slot directory entry %d (%#x) has reserved flag bits set", i, e)
		}
		ids = append(ids, e)
	}
	return ids, nil
}

// rebuildSlots reconstructs the segID→slot map from a recovered image's
// directory region.
func (c *ShardCore) rebuildSlots(img []byte) error {
	ids, err := readDirectory(img, c.cfg.Slots)
	if err != nil {
		return err
	}
	for slot, id := range ids {
		c.slots[id] = uint32(slot)
	}
	c.nextSlot = uint32(len(ids))
	return nil
}

// EnableTuning turns on the configured write-absorption and group-commit
// stages. Call once recovery (if any) is complete.
func (c *ShardCore) EnableTuning() {
	if c.cfg.AbsorbWindow > 0 {
		c.Sys.EnableWriteAbsorption(c.cfg.AbsorbWindow)
	}
	if c.cfg.GroupSize > 1 {
		c.Sys.EnableGroupCommit(c.cfg.GroupSize, c.cfg.GroupDeadline)
	}
}

// SetShipper attaches the shard's replication shipper: compaction cuts
// are bounded by its consumers' acks and forwarded to it.
func (c *ShardCore) SetShipper(s compact.Shipper) { c.ship.ext = s }

// Seq reports the last issued transaction sequence.
func (c *ShardCore) Seq() uint32 { return c.seq }

// Segments reports how many tenant segments are open.
func (c *ShardCore) Segments() int { return len(c.slots) }

// SlotOff reports the arena byte offset of slot i.
func (c *ShardCore) SlotOff(i uint32) uint32 {
	return c.slotBase + i*c.cfg.SlotSize
}

// SlotSize reports the per-tenant slot bytes.
func (c *ShardCore) SlotSize() uint32 { return c.cfg.SlotSize }

// Lookup returns a tenant's slot index.
func (c *ShardCore) Lookup(segID uint64) (uint32, bool) {
	s, ok := c.slots[segID]
	return s, ok
}

// ErrNoSlot reports a full slot directory.
var ErrNoSlot = errors.New("lvmd: shard slot directory full")

// Open maps segID to a slot, allocating one inside a marker-bracketed
// transaction on first open (the directory write recovers with the
// data). The allocation is durable only after the next SyncBatch; the
// caller acknowledges after that fence, like a commit.
func (c *ShardCore) Open(segID uint64) (slot uint32, existed bool, err error) {
	if segID == 0 {
		return 0, false, errors.New("lvmd: segment ID 0 is reserved")
	}
	if segID&dirFlagMask != 0 {
		return 0, false, fmt.Errorf("lvmd: segment ID %#x collides with directory flag bits", segID)
	}
	if s, ok := c.slots[segID]; ok {
		return s, true, nil
	}
	if int(c.nextSlot) >= c.cfg.Slots {
		return 0, false, ErrNoSlot
	}
	slot = c.nextSlot
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	dir := c.base + core.Addr(MarkerLimit+slot*dirEntryBytes)
	c.P.Store32(dir, uint32(segID))
	c.P.Store32(dir+4, uint32(segID>>32))
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	c.nextSlot++
	c.slots[segID] = slot
	c.sh.Inc(metrics.LvmdOpens)
	return slot, false, nil
}

// Commit applies one client transaction: every write behind a begin
// marker, then the commit marker. Durable (and acknowledgeable) only
// after the next SyncBatch. Returns the marker-protocol sequence.
func (c *ShardCore) Commit(segID uint64, writes []Write) (uint32, error) {
	slot, ok := c.slots[segID]
	if !ok {
		return 0, fmt.Errorf("lvmd: commit to unopened segment %d", segID)
	}
	for _, w := range writes {
		if w.Off%4 != 0 || w.Off+4 > c.cfg.SlotSize {
			return 0, fmt.Errorf("lvmd: store offset %d invalid for %d-byte slot", w.Off, c.cfg.SlotSize)
		}
	}
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	va := c.base + core.Addr(c.SlotOff(slot))
	for _, w := range writes {
		c.P.Store32(va+core.Addr(w.Off), w.Val)
	}
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	c.sh.Inc(metrics.LvmdCommits)
	c.sh.Add(metrics.LvmdStores, uint64(len(writes)))
	return c.seq, nil
}

// Read returns committed tenant bytes (call after SyncBatch for
// read-your-acked-writes consistency; the shard goroutine serializes
// reads with commits either way).
func (c *ShardCore) Read(segID uint64, off, n uint32) ([]byte, error) {
	slot, ok := c.slots[segID]
	if !ok {
		return nil, fmt.Errorf("lvmd: read of unopened segment %d", segID)
	}
	if off+n < off || off+n > c.cfg.SlotSize {
		return nil, fmt.Errorf("lvmd: read [%d,%d) leaves %d-byte slot", off, off+n, c.cfg.SlotSize)
	}
	out := make([]byte, n)
	c.Arena.ReadInto(c.SlotOff(slot)+off, out)
	c.sh.Inc(metrics.LvmdReads)
	return out, nil
}

// SyncBatch is the group durability fence: drain the bus logger, mirror
// the new log records into the tail file, and fsync it. Everything
// applied since the previous fence is durable when it returns — the
// point at which commit acknowledgements may be sent. It refuses to
// succeed if the hardware lost records (a full log wrapped into absorb
// mode): acknowledging on top of silent loss would be a durability lie.
func (c *ShardCore) SyncBatch() error {
	c.Sys.Sync()
	if lost := c.LogSeg.LostRecords(); lost > c.lost {
		c.lost = lost
		return fmt.Errorf("lvmd: hardware log overflowed, %d records lost", lost)
	}
	c.sh.Inc(metrics.LvmdBatches)
	if c.cfg.Tail == nil {
		return nil
	}
	c.reader.Sync()
	t := c.cfg.Tail
	from := c.reader.Offset()
	var n int
	t.buf, n = logcursor.AppendData(t.buf, c.reader, c.Arena, math.MaxInt)
	if foreign := int((c.reader.Offset()-from)/logrec.Size) - n; foreign > 0 {
		return fmt.Errorf("lvmd: %d log records for foreign segments before offset %d", foreign, c.reader.Offset())
	}
	if err := t.Flush(); err != nil {
		return err
	}
	c.sh.Add(metrics.LvmdTailBytes, uint64(n)*logrec.Size)
	return nil
}

// MaybeCompact runs a checkpoint-and-truncate cycle once the log tail,
// or the tail mirror, passes half the log's capacity. The mirror can be
// the longer one: a restart keeps earlier generations' records in it.
// A refused compaction (e.g. a device error) leaves the log intact and
// recovery falls back to a longer replay; it is reported but not fatal.
func (c *ShardCore) MaybeCompact() (bool, error) {
	half := uint64(c.cfg.LogPages) * uint64(core.PageSize) / 2
	end := c.Sys.K.LogAppendOffset(c.LogSeg)
	t := c.cfg.Tail
	if uint64(end) < half && (t == nil || t.Size() < half) {
		return false, nil
	}
	if err := c.Mgr.Compact(c.P.CPU); err != nil {
		return false, err
	}
	if t != nil && t.CutBase() < c.Mgr.CutBase() {
		// The log cut nothing (so nothing called Compacted), but the
		// checkpoint just committed covers every record below the base.
		return true, c.cutTail()
	}
	return true, nil
}

// cutTail drops the mirror's records below the manager's logical base:
// the current generation's that a compaction cut, and any earlier
// generations' a restart kept (or a failed cut left). One frame, one
// rule.
func (c *ShardCore) cutTail() error {
	t := c.cfg.Tail
	return t.Cut(c.Mgr.CutBase() - t.CutBase())
}

// Checkpoint commits a checkpoint image without truncating (drain path:
// it must not wait on lagging replication consumers).
func (c *ShardCore) Checkpoint() error { return c.Mgr.Checkpoint(nil) }

// Digest hashes the arena's recoverable bytes (directory + slots; the
// volatile marker word is excluded). Two shards with identical committed
// state digest identically — the byte-identical-restart check.
func (c *ShardCore) Digest() [32]byte {
	buf := make([]byte, c.Arena.Size()-MarkerLimit)
	c.Arena.ReadInto(MarkerLimit, buf)
	return sha256.Sum256(buf)
}

// RecoverInfo reports what a restart recovery did. Offsets in the
// embedded result (Start, QuarantinedFrom) are tail-file offsets: byte k
// of the mirror is logical log byte CutBase+k; Watermark is logical.
type RecoverInfo struct {
	compact.RecoverResult
	// TailRecords is how many records the mirror held up to its end
	// (past its last record with a non-zero size field). ReissuedRecords
	// is how many of them recovery accepted: all of them on a clean tail,
	// those before the first invalid record on a damaged one. A zero
	// record inside the end, left by a torn sector, is invalid. The rest
	// are quarantined, and Quarantined() reports it.
	TailRecords     int
	ReissuedRecords int
	Seq             uint32
	// Intact reports that the files already are the recovered state in
	// one logical frame: nothing quarantined, the checkpoint's watermark
	// (0 without one) inside the mirror's span, and a mirror that is
	// empty only if nothing was ever committed. RestartCore keeps such
	// files as they are.
	Intact bool
}

// RecoverImage reconstructs a shard's committed arena image from its
// durable files without modifying them, and without a machine: a log
// record carries the address, the datum and its size, and the tail
// mirror's addresses are already arena offsets, so the image is the last
// committed checkpoint (compact.LoadCheckpoint) plus the mirrored bytes
// past its watermark, walked in place through a read-only mapping of
// the file (TailFile.mapRecords, released before it returns) by the
// shared cursor (logcursor.Run; marker-committed transactions only)
// into an image sink (logcursor.Config.Image): the walk stores each
// committed write from the mapped bytes straight into the image, with
// no per-record Rec or call, and the heap it takes is the image, not
// the tail. A file truncated below the mirror's end, before the walk or
// during it, is an error (walkMapped). The first invalid record
// quarantines the rest of the tail: the image is then checkpoint +
// committed prefix, and the info says where the damage began. Pure:
// calling it twice must produce identical images — the -check mode's
// determinism probe.
func RecoverImage(cfg CoreConfig, tail *TailFile) ([]byte, RecoverInfo, error) {
	var info RecoverInfo
	arenaSize, err := cfg.ArenaSize()
	if err != nil {
		return nil, info, err
	}
	if cfg.Disk == nil {
		return nil, info, errors.New("lvmd: CoreConfig.Disk is required")
	}
	img, rr, err := compact.LoadCheckpoint(recovery.NewRetryDisk(cfg.Disk, nil, nil), cfg.DiskBase, arenaSize)
	if err != nil {
		return nil, info, err
	}
	if img == nil {
		img = make([]byte, arenaSize)
	}
	info.TailRecords = int(tail.size / logrec.Size)
	// Replay starts where the image stops: the checkpoint's logical
	// watermark in the mirror's frame, clamped to the mirror's end. (A
	// watermark below the mirror's base is left only by the older
	// restart that checkpointed at offset 0 and died before resetting the
	// tail: that image already holds the mirror, and replaying the mirror
	// from its start re-applies writes the image holds.)
	start := uint64(0)
	if rr.Watermark > tail.cutBase {
		start = min(rr.Watermark-tail.cutBase, tail.size)
	}
	start -= start % logrec.Size
	rr.Start = uint32(start)
	recs, mapping, err := tail.mapRecords(start)
	if err != nil {
		return nil, info, err
	}
	st, err := walkMapped(recs, arenaSize, logcursor.NewWalker(logcursor.Config{
		View:        logcursor.Committed,
		MarkerLimit: MarkerLimit,
		End:         uint32(len(recs)),
		Image:       img,
	}))
	if mapping != nil {
		if uerr := syscall.Munmap(mapping); err == nil && uerr != nil {
			err = fmt.Errorf("lvmd: tail unmap: %w", uerr)
		}
	}
	if err != nil {
		return nil, info, err
	}
	rr.Result = recovery.FromStats(st)
	info.ReissuedRecords = info.TailRecords
	if rr.Quarantined() {
		rr.QuarantinedFrom += rr.Start
		info.ReissuedRecords = int(rr.QuarantinedFrom / logrec.Size)
	}
	info.RecoverResult = rr
	// The transaction sequence resumes past both the image's marker word
	// (the last marker the checkpoint captured) and the replayed tail.
	info.Seq = binary.LittleEndian.Uint32(img) &^ recovery.MarkerCommit
	if rr.LastSeq > info.Seq {
		info.Seq = rr.LastSeq
	}
	// Stamp the resolved sequence back into the marker word: replay never
	// writes protocol words into the image, so it would otherwise keep the
	// marker the checkpoint captured. A generation that serves no new
	// transactions re-checkpoints its image verbatim, and the next recovery
	// — with an empty tail and so no LastSeq to compensate — would report
	// the stale sequence.
	if info.Seq != 0 {
		binary.LittleEndian.PutUint32(img, info.Seq|recovery.MarkerCommit)
	}
	end := tail.cutBase + tail.size
	info.Intact = !rr.Quarantined() && tail.cutBase <= rr.Watermark && rr.Watermark <= end &&
		(end > 0 || info.Seq == 0)
	return img, info, nil
}
