// Package cache models the processor's on-chip data cache (the 68040's
// split I/D cache; we model the 4 KiB data half with 16-byte lines,
// direct-mapped) as a cost model.
//
// The cache is functional only with respect to tags and dirty bits: the
// simulated machine keeps authoritative data in physical memory, so the
// cache model decides *what an access costs*, not what it returns. Logged
// pages run in write-through mode (set by the kernel at page-fault time,
// Section 3.2); write-through writes update the cached copy if present but
// never allocate, so each one appears on the bus where the logger can
// snoop it.
package cache

import "lvm/internal/cycles"

// Event describes what an L1 access did, so the machine can charge costs.
type Event struct {
	// Hit reports whether the access hit in the cache.
	Hit bool
	// WritebackVictim reports that a dirty victim line had to be written
	// back to the second-level cache before the fill.
	WritebackVictim bool
	// VictimAddr is the base address of the written-back victim line.
	VictimAddr uint32
}

type line struct {
	valid bool
	dirty bool
	tag   uint32
}

// L1 is a direct-mapped write-back data cache with 16-byte lines.
type L1 struct {
	lines      [cycles.L1Lines]line
	validLines int

	// Stats.
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	// PageSweeps counts InvalidatePage calls (deferred-copy resets sweep
	// the destination pages out of the cache, Section 3.3).
	PageSweeps uint64
	// SweepDirtyDropped counts dirty lines discarded by those sweeps —
	// the modified data a resetDeferredCopy threw away.
	SweepDirtyDropped uint64
}

// NewL1 creates an empty cache.
func NewL1() *L1 { return &L1{} }

func split(addr uint32) (idx int, tag uint32) {
	lineNo := addr >> cycles.LineShift
	return int(lineNo % cycles.L1Lines), lineNo / cycles.L1Lines
}

// Access performs a (write-back mode) load or store at addr and reports
// the resulting traffic.
func (c *L1) Access(addr uint32, write bool) Event {
	idx, tag := split(addr)
	l := &c.lines[idx]
	if l.valid && l.tag == tag {
		c.Hits++
		if write {
			l.dirty = true
		}
		return Event{Hit: true}
	}
	c.Misses++
	ev := Event{}
	if l.valid && l.dirty {
		c.Writebacks++
		ev.WritebackVictim = true
		ev.VictimAddr = (l.tag*cycles.L1Lines + uint32(idx)) << cycles.LineShift
	}
	if !l.valid {
		c.validLines++
	}
	l.valid = true
	l.dirty = write
	l.tag = tag
	return ev
}

// StoreHit performs a write-back store at addr only if it hits, reporting
// whether it did. A miss changes nothing: the caller falls back to Access.
// This is the hot-path probe — no Event is materialized.
func (c *L1) StoreHit(addr uint32) bool {
	idx, tag := split(addr)
	l := &c.lines[idx]
	if l.valid && l.tag == tag {
		c.Hits++
		l.dirty = true
		return true
	}
	return false
}

// LoadHit performs a load at addr only if it hits, reporting whether it
// did. A miss changes nothing: the caller falls back to Access.
func (c *L1) LoadHit(addr uint32) bool {
	idx, tag := split(addr)
	l := &c.lines[idx]
	if l.valid && l.tag == tag {
		c.Hits++
		return true
	}
	return false
}

// InvalidateAll empties the cache (context switch, explicit flush).
func (c *L1) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.validLines = 0
}

// InvalidatePage drops every line belonging to the 4 KiB page containing
// addr, returning how many dirty lines were discarded. One pass over the
// tag array: a line at index idx with tag t caches line number
// t*L1Lines+idx, which is in the page iff it falls in the page's 256-line
// range. (With a 4 KiB direct-mapped cache, a 4 KiB page covers every
// index exactly once, so per-index division as the old per-line loop did
// is redundant.)
func (c *L1) InvalidatePage(pageBase uint32) (dropped int) {
	c.PageSweeps++
	if c.validLines == 0 {
		return 0
	}
	firstLine := pageBase >> cycles.LineShift
	lastLine := firstLine + 4096/cycles.LineSize
	for idx := range c.lines {
		l := &c.lines[idx]
		if !l.valid {
			continue
		}
		lineNo := l.tag*cycles.L1Lines + uint32(idx)
		if lineNo >= firstLine && lineNo < lastLine {
			if l.dirty {
				dropped++
			}
			l.valid = false
			c.validLines--
		}
	}
	c.SweepDirtyDropped += uint64(dropped)
	return dropped
}
