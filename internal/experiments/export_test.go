package experiments

import "lvm/internal/core"

// Segments returns the store loop's data and log segments, for tests
// that digest what the loop leaves in memory.
func (sl *StoreLoop) Segments() (data, log *core.Segment) {
	data, _, _ = sl.P.AS.Translate(sl.base)
	return data, sl.ls
}
