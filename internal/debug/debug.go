// Package debug implements the debugging uses of LVM from Section 1 of
// the paper: "a debugger can use logged virtual memory to log the writes
// of a program being debugged. The debugger can then determine when data
// was erroneously overwritten as well as generally monitor the state
// updates in a program under development. The log can also be used to
// support reverse execution."
//
// Because logging is attached to the region (not compiled into the
// program), the debugger can enable it "with no change to the program
// binary" (Section 2.7) — see core.Region.Log.
package debug

import (
	"fmt"

	"lvm/internal/core"
)

// WriteInfo is one observed write to a watched range.
type WriteInfo struct {
	SegOff    uint32
	Value     uint32
	Size      uint16
	CPU       uint16
	Timestamp uint32
	// Index is the record's ordinal position in the log.
	Index int
}

// Watcher scans a log for writes of interest.
type Watcher struct {
	sys *core.System
	seg *core.Segment
	ls  *core.Segment
}

// NewWatcher watches writes to seg recorded in ls.
func NewWatcher(sys *core.System, seg, ls *core.Segment) *Watcher {
	return &Watcher{sys: sys, seg: seg, ls: ls}
}

// WritesTo returns every logged write that touched [off, off+n).
func (w *Watcher) WritesTo(off, n uint32) []WriteInfo {
	r := core.NewLogReader(w.sys, w.ls)
	var out []WriteInfo
	idx := 0
	for {
		rec, ok := r.Next()
		if !ok {
			return out
		}
		if rec.Seg == w.seg && rec.SegOff+uint32(rec.WriteSize) > off && rec.SegOff < off+n {
			out = append(out, WriteInfo{
				SegOff:    rec.SegOff,
				Value:     rec.Value,
				Size:      rec.WriteSize,
				CPU:       rec.CPU,
				Timestamp: rec.Timestamp,
				Index:     idx,
			})
		}
		idx++
	}
}

// FirstOverwriteAfter finds the first write to [off, off+n) at or after
// record index start — the "who clobbered my variable" query.
func (w *Watcher) FirstOverwriteAfter(off, n uint32, start int) (WriteInfo, bool) {
	for _, wi := range w.WritesTo(off, n) {
		if wi.Index >= start {
			return wi, true
		}
	}
	return WriteInfo{}, false
}

// ReverseExecutor supports reverse execution over a logged region: given
// a checkpoint of the initial state and the write log, it reconstructs
// the segment's state as of any record index by replaying the prefix
// (the log "can be used to support reverse execution [7], a debugging
// technique in which a program is allowed to run until it fails, and then
// backed up... until the problem is located").
type ReverseExecutor struct {
	sys  *core.System
	seg  *core.Segment // the live (failed) segment
	ls   *core.Segment
	ckpt *core.Segment // initial-state checkpoint
	// view is the reconstructed state.
	view *core.Segment
	// pos is the record index the view reflects.
	pos int
	// total is the record count in the log.
	total int
}

// NewReverseExecutor builds an executor from a checkpoint segment holding
// the state at the start of the log. The view is positioned at the end of
// the log (the failure point).
func NewReverseExecutor(sys *core.System, seg, ls, ckpt *core.Segment) (*ReverseExecutor, error) {
	if ckpt.Size() < seg.Size() {
		return nil, fmt.Errorf("debug: checkpoint smaller than segment")
	}
	re := &ReverseExecutor{sys: sys, seg: seg, ls: ls, ckpt: ckpt}
	re.view = core.NewNamedSegment(sys, "debug-view", seg.Size(), nil)
	r := core.NewLogReader(sys, ls)
	re.total = r.Remaining()
	re.pos = -1
	if err := re.Goto(re.total); err != nil {
		return nil, err
	}
	return re, nil
}

// Records reports the total record count.
func (re *ReverseExecutor) Records() int { return re.total }

// Goto reconstructs the state after the first n records.
func (re *ReverseExecutor) Goto(n int) error {
	if n < 0 || n > re.total {
		return fmt.Errorf("debug: position %d out of range [0,%d]", n, re.total)
	}
	if n < re.pos || re.pos < 0 {
		// Rebuild from the checkpoint.
		re.sys.K.Bcopy(nil, re.view, 0, re.ckpt, 0, re.seg.Size())
		re.pos = 0
	}
	r := core.NewLogReader(re.sys, re.ls)
	if err := r.Seek(uint32(re.pos) * 16); err != nil {
		return err
	}
	for re.pos < n {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Seg == re.seg {
			rec.Apply(re.view)
		}
		re.pos++
	}
	return nil
}

// StepBack moves one record backwards.
func (re *ReverseExecutor) StepBack() error {
	if re.pos == 0 {
		return fmt.Errorf("debug: at start of history")
	}
	return re.Goto(re.pos - 1)
}

// Word reads a word of the reconstructed state.
func (re *ReverseExecutor) Word(off uint32) uint32 { return re.view.Read32(off) }

// FindLastGood scans backwards for the latest position at which pred
// holds (binary search is invalid because predicates need not be
// monotonic; this walks records in reverse). Returns -1 if none.
func (re *ReverseExecutor) FindLastGood(pred func(*ReverseExecutor) bool) (int, error) {
	for n := re.total; n >= 0; n-- {
		if err := re.Goto(n); err != nil {
			return -1, err
		}
		if pred(re) {
			return n, nil
		}
	}
	return -1, nil
}
