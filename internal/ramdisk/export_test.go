package ramdisk

import "lvm/internal/machine"

// The tests' error-dropping device operations: no program drops a
// device error.

// ReadAt reads len(out) bytes starting at off, dropping injected
// failures; fault-aware callers use TryReadAt.
func (d *Disk) ReadAt(cpu *machine.CPU, off uint64, out []byte) {
	_ = d.TryReadAt(cpu, off, out)
}

// Sync charges a flush barrier, dropping injected failures.
func (d *Disk) Sync(cpu *machine.CPU) {
	_ = d.TrySync(cpu)
}

// WriteAt stores data starting at the given byte offset, charging the
// device cost to cpu (nil = uncharged, e.g. during recovery replay).
// Injected failures are dropped; fault-aware callers use TryWriteAt.
func (d *Disk) WriteAt(cpu *machine.CPU, off uint64, data []byte) {
	_ = d.TryWriteAt(cpu, off, data)
}
