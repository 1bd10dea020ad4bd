// Package rvm implements a Coda-RVM-style recoverable virtual memory as
// the application-level baseline the paper compares LVM against
// (Sections 2.5, 4.2 and 5.3): the application maps a recoverable segment,
// brackets updates with transactions, and must call SetRange before
// modifying recoverable memory so the library can save the old value and
// later write a redo record at commit.
//
// The write-ahead log and the durable segment image live on a RAM disk,
// as in the paper's TPC-A measurement.
package rvm

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/machine"
	"lvm/internal/ramdisk"
)

// walMagic marks a committed transaction record on disk.
const walMagic = 0x52564D31 // "RVM1"

// WALRange is one modified range inside a committed transaction.
type WALRange struct {
	Off  uint32
	Data []byte
}

// WAL is a redo log on a RAM disk: a sequence of committed transaction
// records, each fully written and synced before commit returns.
//
// On-disk record layout (little endian):
//
//	u32 magic, u32 seq, u32 nRanges,
//	nRanges × { u32 off, u32 len, bytes },
//	u32 endMagic
type WAL struct {
	disk ramdisk.Device
	base uint64 // byte offset of the log area on the disk
	tail uint64 // next append offset, relative to base
}

// NewWAL creates a write-ahead log at the given disk offset.
func NewWAL(d ramdisk.Device, base uint64) *WAL { return &WAL{disk: d, base: base} }

// AppendCommit durably appends one committed transaction: the record body
// is written first, then the commit seal (the trailing magic), then the
// device is synced — the classic write-ahead discipline, and two device
// operations plus a sync per commit, which is what makes commit dominate
// TPC-A (Section 4.2). A device error leaves at worst a torn record,
// which the recovery Scan ignores; the tail does not advance.
func (w *WAL) AppendCommit(cpu *machine.CPU, seq uint32, ranges []WALRange) error {
	size := 16
	for _, r := range ranges {
		size += 8 + len(r.Data)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, walMagic)
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ranges)))
	for _, r := range ranges {
		buf = binary.LittleEndian.AppendUint32(buf, r.Off)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
		buf = append(buf, r.Data...)
	}
	if err := w.disk.TryWriteAt(cpu, w.base+w.tail, buf); err != nil {
		return fmt.Errorf("rvm: wal append: %w", err)
	}
	var seal []byte
	seal = binary.LittleEndian.AppendUint32(seal, walMagic)
	if err := w.disk.TryWriteAt(cpu, w.base+w.tail+uint64(len(buf)), seal); err != nil {
		return fmt.Errorf("rvm: wal seal: %w", err)
	}
	if err := w.disk.TrySync(cpu); err != nil {
		return fmt.Errorf("rvm: wal sync: %w", err)
	}
	w.tail += uint64(len(buf)) + 4
	return nil
}

// Scan replays every committed transaction in order, calling cb with its
// sequence number and ranges. It stops at the first record that is absent
// or torn (recovery semantics: an unfinished commit is ignored), and at
// the first record whose sequence number does not increase: Reset only
// overwrites the first header, so sealed records from the previous log
// epoch survive past the new tail, and when record sizes line up the old
// bytes parse as valid commits. Sequence numbers increase monotonically
// across truncations, which makes stale epochs detectable.
func (w *WAL) Scan(cb func(seq uint32, ranges []WALRange)) error {
	off := uint64(0)
	last, any := uint32(0), false
	for {
		var hdr [12]byte
		if err := w.disk.TryReadAt(nil, w.base+off, hdr[:]); err != nil {
			return fmt.Errorf("rvm: wal scan header: %w", err)
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != walMagic {
			return nil
		}
		seq := binary.LittleEndian.Uint32(hdr[4:])
		if any && seq <= last {
			// Stale record from an earlier epoch, not a continuation.
			return nil
		}
		n := binary.LittleEndian.Uint32(hdr[8:])
		if n > 1<<20 {
			return fmt.Errorf("rvm: implausible range count %d at %d", n, off)
		}
		pos := off + 12
		ranges := make([]WALRange, 0, n)
		for i := uint32(0); i < n; i++ {
			var rh [8]byte
			if err := w.disk.TryReadAt(nil, w.base+pos, rh[:]); err != nil {
				return fmt.Errorf("rvm: wal scan range header: %w", err)
			}
			ro := binary.LittleEndian.Uint32(rh[0:])
			rl := binary.LittleEndian.Uint32(rh[4:])
			if rl > 1<<24 {
				return fmt.Errorf("rvm: implausible range length %d", rl)
			}
			data := make([]byte, rl)
			if err := w.disk.TryReadAt(nil, w.base+pos+8, data); err != nil {
				return fmt.Errorf("rvm: wal scan range data: %w", err)
			}
			ranges = append(ranges, WALRange{Off: ro, Data: data})
			pos += 8 + uint64(rl)
		}
		var end [4]byte
		if err := w.disk.TryReadAt(nil, w.base+pos, end[:]); err != nil {
			return fmt.Errorf("rvm: wal scan seal: %w", err)
		}
		if binary.LittleEndian.Uint32(end[:]) != walMagic {
			// Torn commit: ignore it and everything after.
			return nil
		}
		cb(seq, ranges)
		last, any = seq, true
		w.tail = pos + 4
		off = w.tail
	}
}

// Reset truncates the log: the image is assumed up to date. On error the
// log keeps its contents — replaying it again is idempotent.
func (w *WAL) Reset(cpu *machine.CPU) error {
	// Overwrite the first header so Scan stops immediately.
	if err := w.disk.TryWriteAt(cpu, w.base, make([]byte, 4)); err != nil {
		return fmt.Errorf("rvm: wal reset: %w", err)
	}
	if err := w.disk.TrySync(cpu); err != nil {
		return fmt.Errorf("rvm: wal reset sync: %w", err)
	}
	w.tail = 0
	return nil
}
