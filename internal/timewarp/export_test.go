package timewarp

// NumObjects is the total object count.
func (s *Sim) NumObjects() uint32 {
	return uint32(s.cfg.Schedulers * s.cfg.ObjectsPerScheduler)
}
