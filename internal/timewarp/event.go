// Package timewarp implements an optimistic (TimeWarp-style) parallel
// discrete-event simulation engine over the LVM system, following
// Section 2.4 of the paper: each scheduler keeps its simulation state in a
// working segment whose deferred-copy source is a checkpoint segment, and
// logs every update; rollback is resetDeferredCopy() plus roll-forward
// from the log, delimited by local-virtual-time marker records; CULT
// (checkpoint update and log truncation) advances the checkpoint to GVT.
//
// A conventional copy-based state saver — "the conventional rollback
// implementation which makes a copy of the affected object state before
// processing each event" — is implemented alongside as the baseline for
// Figures 7 and 8.
package timewarp

// VT is virtual time.
type VT = uint32

// EventID uniquely identifies an event and provides a total tie-break
// order for simultaneous events.
type EventID struct {
	Sched uint32
	Seq   uint32
}

// Event is one simulation event.
type Event struct {
	Time VT
	ID   EventID
	// Obj is the global index of the target object.
	Obj uint32
	// Data is the event payload.
	Data uint32
	// Anti marks an anti-message (annihilates the matching positive).
	Anti bool
}

// before orders events by (Time, Obj, Data) with the ID as the final
// arbitrary tie-break. Content-first ordering makes the simulation outcome
// independent of the stepping policy: two events with identical time,
// target and payload are semantically interchangeable (handlers are
// deterministic functions of event content and target state), so even
// though re-sent events get fresh IDs after a rollback, every policy
// processes an equivalent sequence.
func (e Event) before(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Obj != o.Obj {
		return e.Obj < o.Obj
	}
	if e.Data != o.Data {
		return e.Data < o.Data
	}
	if e.ID.Sched != o.ID.Sched {
		return e.ID.Sched < o.ID.Sched
	}
	return e.ID.Seq < o.ID.Seq
}

// inputQueue is a binary min-heap of events ordered by before, with
// annihilation support. Its sift steps are container/heap's, typed, so
// nothing is boxed and the layout matches a container/heap of the same
// pushes and pops.
type inputQueue struct{ h []Event }

func (q *inputQueue) push(e Event) {
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

func (q *inputQueue) pop() (Event, bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Event{}, false
	}
	q.h[0], q.h[n] = q.h[n], q.h[0]
	q.down(0, n)
	return q.shrink(), true
}

// shrink drops and returns the last slot.
func (q *inputQueue) shrink() Event {
	n := len(q.h) - 1
	e := q.h[n]
	q.h = q.h[:n]
	return e
}

// up moves slot j toward the root while it orders before its parent.
func (q *inputQueue) up(j int) {
	h := q.h
	for {
		i := (j - 1) / 2
		if i == j || !h[j].before(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down moves slot i0 toward the leaves of h[:n], reporting whether it
// moved.
func (q *inputQueue) down(i0, n int) bool {
	h := q.h
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(h[j]) {
			j = j2
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

func (q *inputQueue) peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

func (q *inputQueue) len() int { return len(q.h) }

// remove deletes the event matching id, reporting success.
func (q *inputQueue) remove(id EventID) bool {
	for i := range q.h {
		if q.h[i].ID == id {
			if n := len(q.h) - 1; i != n {
				q.h[i], q.h[n] = q.h[n], q.h[i]
				if !q.down(i, n) {
					q.up(i)
				}
			}
			q.shrink()
			return true
		}
	}
	return false
}
