// Package ramdisk models the RAM disk that holds the RVM redo log in the
// paper's TPC-A measurement ("using a RAM disk to hold the log",
// Section 4.2).
//
// A RAM disk has no seek or rotational latency, but going through the
// block-device driver and buffer management still costs a fixed software
// overhead per operation plus a per-block transfer cost. These constants
// are calibrated so that the RVM commit + log truncation path reproduces
// the Table 3 TPC-A throughputs (418 tps for RVM, 552 tps for RLVM); see
// EXPERIMENTS.md.
package ramdisk

import (
	"fmt"

	"lvm/internal/machine"
)

// BlockSize is the device block size in bytes.
const BlockSize = 512

// Cost model (cycles).
const (
	// OpCycles is the per-request software overhead (system call, driver,
	// buffer management, completion).
	OpCycles = 12_000
	// BlockCycles is the per-block transfer cost.
	BlockCycles = 700
	// SyncCycles is the cost of a synchronizing barrier (flush).
	SyncCycles = 11_000
)

// Op identifies a device operation for the failure-injection hook.
type Op uint8

const (
	// OpRead is a ReadAt/TryReadAt request.
	OpRead Op = iota
	// OpWrite is a WriteAt/TryWriteAt request.
	OpWrite
	// OpSync is a Sync/TrySync barrier.
	OpSync
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "sync"
	}
}

// Device is the block-device surface the recoverable-memory managers
// (internal/rvm, internal/rlvm) write through. *Disk implements it;
// internal/recovery wraps one with bounded retry-with-backoff so
// transient faults are absorbed below the managers.
type Device interface {
	// TryReadAt reads len(out) bytes starting at off. On error the
	// operation's cycles are still charged (the request reached the
	// device) but out is untouched.
	TryReadAt(cpu *machine.CPU, off uint64, out []byte) error
	// TryWriteAt stores data starting at off. On error no bytes are
	// written: a failed commit write leaves a torn record for the WAL
	// scan to detect, never a partial silent success.
	TryWriteAt(cpu *machine.CPU, off uint64, data []byte) error
	// TrySync is a flush barrier.
	TrySync(cpu *machine.CPU) error
}

// Disk is a RAM disk: an array of blocks with a cycle cost model.
type Disk struct {
	blocks map[uint32][]byte

	// FailHook, when non-nil, may fail an operation before any data
	// moves (the fault injector's transient-error surface). The failed
	// op is still charged its device cycles and counted in FailedOps.
	FailHook func(op Op, off uint64, n int) error

	// Stats.
	Reads, Writes, Syncs uint64
	BlocksMoved          uint64
	FailedOps            uint64
}

// New creates an empty RAM disk.
func New() *Disk { return &Disk{blocks: make(map[uint32][]byte)} }

// TryWriteAt implements Device.
func (d *Disk) TryWriteAt(cpu *machine.CPU, off uint64, data []byte) error {
	nblocks := d.span(off, len(data))
	d.Writes++
	d.BlocksMoved += nblocks
	if cpu != nil {
		cpu.Compute(OpCycles + nblocks*BlockCycles)
	}
	if d.FailHook != nil {
		if err := d.FailHook(OpWrite, off, len(data)); err != nil {
			d.FailedOps++
			return err
		}
	}
	for len(data) > 0 {
		bn := uint32(off / BlockSize)
		bo := int(off % BlockSize)
		blk := d.block(bn)
		n := copy(blk[bo:], data)
		data = data[n:]
		off += uint64(n)
	}
	return nil
}

// TryReadAt implements Device.
func (d *Disk) TryReadAt(cpu *machine.CPU, off uint64, out []byte) error {
	nblocks := d.span(off, len(out))
	d.Reads++
	d.BlocksMoved += nblocks
	if cpu != nil {
		cpu.Compute(OpCycles + nblocks*BlockCycles)
	}
	if d.FailHook != nil {
		if err := d.FailHook(OpRead, off, len(out)); err != nil {
			d.FailedOps++
			return err
		}
	}
	for len(out) > 0 {
		bn := uint32(off / BlockSize)
		bo := int(off % BlockSize)
		blk := d.block(bn)
		n := copy(out, blk[bo:])
		out = out[n:]
		off += uint64(n)
	}
	return nil
}

// TrySync implements Device.
func (d *Disk) TrySync(cpu *machine.CPU) error {
	d.Syncs++
	if cpu != nil {
		cpu.Compute(SyncCycles)
	}
	if d.FailHook != nil {
		if err := d.FailHook(OpSync, 0, 0); err != nil {
			d.FailedOps++
			return err
		}
	}
	return nil
}

func (d *Disk) block(bn uint32) []byte {
	blk, ok := d.blocks[bn]
	if !ok {
		blk = make([]byte, BlockSize)
		d.blocks[bn] = blk
	}
	return blk
}

func (d *Disk) span(off uint64, n int) uint64 {
	if n == 0 {
		return 0
	}
	first := off / BlockSize
	last := (off + uint64(n) - 1) / BlockSize
	return last - first + 1
}

// String summarizes device activity.
func (d *Disk) String() string {
	return fmt.Sprintf("ramdisk{reads=%d writes=%d syncs=%d blocks=%d}", d.Reads, d.Writes, d.Syncs, d.BlocksMoved)
}
