package logship

// Consumers reports how many live consumers are attached. Pump thread
// only; joined-but-unadmitted connections don't count until the next
// Flush.
func (s *Shipper) Consumers() int {
	n := 0
	for _, c := range s.conns {
		if !c.dead.Load() {
			n++
		}
	}
	return n
}
