package phys

// ZeroPageIsZero reports whether the shared zero page still reads all
// zeroes, for the external test that runs the simulator over it.
func ZeroPageIsZero() bool { return zeroPage == [PageSize]byte{} }

// Free reports how many frames remain allocatable.
func (m *Memory) Free() int { return m.numFrames - len(m.frames) }
