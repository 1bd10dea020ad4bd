// Package trace analyzes LVM write logs as address traces, per Section 1
// of the paper: "Logging can also be used to obtain a detailed address
// trace of a program, which can be useful for detecting and isolating
// performance problems or as input to memory system simulators", and
// Section 2.7: "the logs provide the information required to identify and
// eliminate these redundant writes."
package trace

import (
	"fmt"
	"sort"
	"strings"

	"lvm/internal/core"
)

// Analysis summarizes a write log.
type Analysis struct {
	Records int
	// BytesWritten is the total payload volume.
	BytesWritten uint64
	// PageWrites counts writes per segment page.
	PageWrites map[uint32]int
	// HotAddrs is the top-N most written word addresses (segment
	// offsets), descending.
	HotAddrs []AddrCount
	// RedundantWrites counts writes that stored a value over an
	// identical value at the same address (the log's before-state
	// reconstruction shows the write changed nothing).
	RedundantWrites int
	// RepeatedWrites counts consecutive-in-log writes to the same
	// address (rapid re-update, the paper's "repeatedly writes the same
	// location when only the last write is of interest").
	RepeatedWrites int
	// CPUWrites counts records per issuing processor.
	CPUWrites map[uint16]int
}

// AddrCount pairs an address with its write count.
type AddrCount struct {
	SegOff uint32
	Count  int
}

// Analyze scans the log of seg held in ls.
func Analyze(sys *core.System, seg, ls *core.Segment, topN int) Analysis {
	a := Analysis{
		PageWrites: map[uint32]int{},
		CPUWrites:  map[uint16]int{},
	}
	counts := map[uint32]int{}
	// lastVal tracks the last value written per word address for
	// redundancy detection (the initial state is all zeroes for fresh
	// segments; unknown addresses are treated as first writes).
	lastVal := map[uint32]uint32{}
	seenAddr := map[uint32]bool{}
	r := core.NewLogReader(sys, ls)
	var prevOff uint32
	prevValid := false
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Seg != seg {
			continue
		}
		a.Records++
		a.BytesWritten += uint64(rec.WriteSize)
		a.PageWrites[rec.SegOff>>12]++
		a.CPUWrites[rec.CPU]++
		word := rec.SegOff &^ 3
		counts[word]++
		if prevValid && prevOff == word {
			a.RepeatedWrites++
		}
		prevOff, prevValid = word, true
		if rec.WriteSize == 4 {
			if seenAddr[word] && lastVal[word] == rec.Value {
				a.RedundantWrites++
			}
			lastVal[word] = rec.Value
			seenAddr[word] = true
		}
	}
	for off, n := range counts {
		a.HotAddrs = append(a.HotAddrs, AddrCount{SegOff: off, Count: n})
	}
	sort.Slice(a.HotAddrs, func(i, j int) bool {
		if a.HotAddrs[i].Count != a.HotAddrs[j].Count {
			return a.HotAddrs[i].Count > a.HotAddrs[j].Count
		}
		return a.HotAddrs[i].SegOff < a.HotAddrs[j].SegOff
	})
	if topN > 0 && len(a.HotAddrs) > topN {
		a.HotAddrs = a.HotAddrs[:topN]
	}
	return a
}

// Format renders the analysis as a report.
func (a Analysis) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "records:          %d\n", a.Records)
	fmt.Fprintf(&b, "bytes written:    %d\n", a.BytesWritten)
	fmt.Fprintf(&b, "pages touched:    %d\n", len(a.PageWrites))
	fmt.Fprintf(&b, "redundant writes: %d\n", a.RedundantWrites)
	fmt.Fprintf(&b, "repeated writes:  %d\n", a.RepeatedWrites)
	if len(a.HotAddrs) > 0 {
		fmt.Fprintf(&b, "hottest addresses:\n")
		for _, h := range a.HotAddrs {
			fmt.Fprintf(&b, "  +%#08x  %6d writes\n", h.SegOff, h.Count)
		}
	}
	return b.String()
}

// CacheSim is a trace-driven set-associative cache simulator fed by LVM
// write logs — the paper's Section 1 use: "a detailed address trace of a
// program, which can be useful... as input to memory system simulators."
type CacheSim struct {
	lineShift uint32
	sets      uint32
	assoc     int
	// tags[set] is an LRU-ordered list (front = most recent).
	tags [][]uint32

	Accesses uint64
	Misses   uint64
}

// NewCacheSim builds a simulator with the given total capacity, line size
// and associativity (all powers of two; assoc 0 = fully associative).
func NewCacheSim(capacity, lineSize uint32, assoc int) (*CacheSim, error) {
	if capacity == 0 || lineSize == 0 || capacity%lineSize != 0 {
		return nil, fmt.Errorf("trace: bad cache geometry %d/%d", capacity, lineSize)
	}
	lines := capacity / lineSize
	if assoc <= 0 || uint32(assoc) > lines {
		assoc = int(lines)
	}
	sets := lines / uint32(assoc)
	ls := uint32(0)
	for (uint32(1) << ls) < lineSize {
		ls++
	}
	c := &CacheSim{lineShift: ls, sets: sets, assoc: assoc, tags: make([][]uint32, sets)}
	return c, nil
}

// Access touches one address, returning whether it hit.
func (c *CacheSim) Access(addr uint32) bool {
	c.Accesses++
	line := addr >> c.lineShift
	set := line % c.sets
	tag := line / c.sets
	ways := c.tags[set]
	for i, t := range ways {
		if t == tag {
			// Move to front (LRU).
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	c.Misses++
	if len(ways) < c.assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = tag
	c.tags[set] = ways
	return false
}

// MissRate reports the miss ratio so far.
func (c *CacheSim) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// SimulateCache replays a write log through a cache model and reports the
// final simulator state.
func SimulateCache(sys *core.System, seg, ls *core.Segment, capacity, lineSize uint32, assoc int) (*CacheSim, error) {
	c, err := NewCacheSim(capacity, lineSize, assoc)
	if err != nil {
		return nil, err
	}
	r := core.NewLogReader(sys, ls)
	for {
		rec, ok := r.Next()
		if !ok {
			return c, nil
		}
		if rec.Seg != seg {
			continue
		}
		c.Access(rec.SegOff)
	}
}
