// Package bus models the ParaDiGM system bus: the single shared path
// between the processors, the second-level cache, memory, and the hardware
// logger.
//
// The model is a simple serially reusable resource on the machine's global
// cycle timeline. A requester asks for the bus no earlier than some cycle
// and for some number of bus cycles; the bus grants the earliest slot at or
// after that cycle and after any previously granted slot. Because the
// simulation is deterministic and single-threaded, arbitration is
// first-come-first-served in simulation order, which matches the
// prototype's behaviour closely enough to reproduce its contention effects
// (write-through bursts queueing behind log-record DMAs, Section 4.5).
package bus

// Bus is the shared system bus.
type Bus struct {
	// freeAt is the first cycle at which the bus is idle.
	freeAt uint64

	// Statistics.
	busyCycles   uint64
	acquisitions uint64
	waitCycles   uint64
}

// New creates an idle bus.
func New() *Bus { return &Bus{} }

// Acquire requests the bus for busCycles cycles, no earlier than cycle
// earliest. It returns the cycle at which the bus was granted; the bus is
// then busy for [grant, grant+busCycles).
func (b *Bus) Acquire(earliest uint64, busCycles uint32) (grant uint64) {
	grant = earliest
	if b.freeAt > grant {
		grant = b.freeAt
	}
	b.waitCycles += grant - earliest
	b.freeAt = grant + uint64(busCycles)
	b.busyCycles += uint64(busCycles)
	b.acquisitions++
	return grant
}

// Stats reports cumulative bus statistics.
func (b *Bus) Stats() (busy, acquisitions, waited uint64) {
	return b.busyCycles, b.acquisitions, b.waitCycles
}
