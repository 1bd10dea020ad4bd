package main

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/lvmd"
)

// model is one client's record of what the server acknowledged: the last
// acked value of every word it owns. A client is synchronous, so at any
// read it issues, none of its own commits is in flight and every word it
// has an ack for must read back exactly.
type model struct {
	slotWords uint32
	val       []uint32 // (seg-1)*slotWords + word
	acked     []bool
}

func newModel(segments int, slotSize uint32) *model {
	n := segments * int(slotSize/4)
	return &model{slotWords: slotSize / 4, val: make([]uint32, n), acked: make([]bool, n)}
}

func (m *model) ack(seg uint64, writes []lvmd.Write) {
	base := uint32(seg-1) * m.slotWords
	for _, w := range writes {
		m.val[base+w.Off/4] = w.Val
		m.acked[base+w.Off/4] = true
	}
}

// check compares data, read from seg at byte offset off, against every
// acked word it covers. It reports how many words it compared and how
// many were wrong.
func (m *model) check(seg uint64, off uint32, data []byte) (checked, bad int) {
	base := uint32(seg-1) * m.slotWords
	for i := 0; i+4 <= len(data); i += 4 {
		w := base + off/4 + uint32(i/4)
		if !m.acked[w] {
			continue
		}
		checked++
		if binary.LittleEndian.Uint32(data[i:]) != m.val[w] {
			bad++
		}
	}
	return checked, bad
}

// verdict accumulates the outcome of every operation and check of a run.
type verdict struct {
	attempted int
	failed    int
	notes     []string
}

func (v *verdict) add(attempted, failed int) {
	v.attempted += attempted
	v.failed += failed
}

// merge folds another goroutine's verdict into this one.
func (v *verdict) merge(o *verdict) {
	v.add(o.attempted, o.failed)
	for _, n := range o.notes {
		if len(v.notes) < 8 {
			v.notes = append(v.notes, n)
		}
	}
}

// fail records a failed check with its reason (the first few are kept
// for the report).
func (v *verdict) fail(format string, args ...any) {
	v.attempted++
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// pass records a check that held.
func (v *verdict) pass() { v.attempted++ }

// expect records one named check.
func (v *verdict) expect(ok bool, format string, args ...any) {
	if ok {
		v.pass()
	} else {
		v.fail(format, args...)
	}
}

// readBack reads every segment's whole slot through cl and checks it
// against every client's model: acked implies readable.
func readBack(cl *lvmd.Client, segments int, slotSize uint32, models []*model, v *verdict, when string) {
	for seg := uint64(1); seg <= uint64(segments); seg++ {
		data, err := cl.Read(seg, 0, slotSize)
		if err != nil {
			v.fail("%s: read segment %d: %v", when, seg, err)
			continue
		}
		for _, m := range models {
			checked, bad := m.check(seg, 0, data)
			v.add(checked, bad)
			if bad > 0 && len(v.notes) < 8 {
				v.notes = append(v.notes, fmt.Sprintf("%s: segment %d: %d of %d acked words wrong", when, seg, bad, checked))
			}
		}
	}
}
