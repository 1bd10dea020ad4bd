package logship

import (
	"fmt"
	"net"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/logrec"
	"lvm/internal/ramdisk"
)

// TakeoverConfig configures the re-seeding of a primary from a promoted
// replica image.
type TakeoverConfig struct {
	// LogPages sizes the new primary's hardware log (default 256).
	LogPages uint32
	// Disk/DiskBase locate the new primary's checkpoint area; Disk is
	// required (the first act of a promoted primary is a checkpoint, so
	// its own crash recovers the promoted state, not nothing).
	Disk     ramdisk.Device
	DiskBase uint64
	// Ship tunes the new primary's shipper; Epoch and StartSeq are
	// overwritten from the granted epoch and the watermark.
	Ship Config
}

// Primary is a re-seeded producer: a fresh System whose segment holds
// the promoted image, with a compact.Manager continuing the timeline at
// the watermark and a Shipper serving the granted epoch.
type Primary struct {
	Sys    *core.System
	Seg    *core.Segment
	LogSeg *core.Segment
	P      *core.Process
	Base   core.Addr
	Mgr    *compact.Manager
	Ship   *Shipper
}

// Takeover builds the new primary from a replica image promoted by
// lease.Authority.Promote at its acked watermark: the image lands raw
// in a fresh logged segment, a compact.Manager is seeded with the
// watermark as its cut base and immediately checkpoints (making the
// promoted state durable before the first client write), and a
// shipper starts at the watermark under the granted epoch — a replica
// of the old primary that connects resumes exactly where its acks
// left off; anything behind the watermark is caught up by snapshot.
func Takeover(img []byte, epoch uint32, watermark uint64, ln net.Listener, cfg TakeoverConfig) (*Primary, error) {
	if cfg.Disk == nil {
		return nil, fmt.Errorf("logship: takeover needs a checkpoint device")
	}
	if cfg.LogPages == 0 {
		cfg.LogPages = 256
	}
	size := uint32(len(img))
	pages := (size + core.PageSize - 1) / core.PageSize
	sys := core.NewSystem(core.Config{
		NumCPUs:   1,
		MemFrames: int(pages) + int(cfg.LogPages) + 64,
	})
	seg := core.NewNamedSegment(sys, "promoted", size, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, cfg.LogPages)
	if err := reg.Log(ls); err != nil {
		return nil, fmt.Errorf("logship: takeover log binding: %w", err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		return nil, fmt.Errorf("logship: takeover binding: %w", err)
	}
	seg.RawWrite(0, img)
	shipCfg := cfg.Ship
	shipCfg.Epoch = epoch
	shipCfg.StartSeq = watermark
	ship := NewShipper(sys, seg, ls, ln, shipCfg)
	mgr, err := compact.New(sys, compact.Options{
		Data: seg, Log: ls, Disk: cfg.Disk, DiskBase: cfg.DiskBase,
		Ship: ship, CutBase: watermark * logrec.Size, Epoch: epoch,
	})
	if err != nil {
		ship.Close()
		return nil, err
	}
	if err := mgr.Checkpoint(nil); err != nil {
		ship.Close()
		return nil, fmt.Errorf("logship: takeover checkpoint: %w", err)
	}
	return &Primary{
		Sys: sys, Seg: seg, LogSeg: ls,
		P: sys.NewProcess(0, as), Base: base,
		Mgr: mgr, Ship: ship,
	}, nil
}
