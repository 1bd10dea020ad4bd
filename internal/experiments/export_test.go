package experiments

import (
	"lvm/internal/core"
	"lvm/internal/phys"
)

// Segments returns the store loop's data and log segments, for tests
// that digest what the loop leaves in memory. The data segment owns the
// lowest-numbered frame the log does not.
func (sl *StoreLoop) Segments() (data, log *core.Segment) {
	for f := uint32(1); data == nil; f++ {
		if s, _, ok := sl.Sys.K.ReverseTranslate(phys.FrameBase(f)); ok && s != sl.ls {
			data = s
		}
	}
	return data, sl.ls
}
