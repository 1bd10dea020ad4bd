package dsm

// The streaming consumer of Section 2.6 is exercised only by tests, so it
// lives here with them.

import (
	"lvm/internal/core"
	"lvm/internal/logcursor"
)

// StreamingConsumer pulls updates from an LVM producer's log *during* the
// critical section, so that "the time for processing on lock release
// (when these updates are flushed) is reduced to the time required to
// synchronize with consumers. That is, there should be little or no
// backlog of data updates to transmit at this time" (Section 2.6).
type StreamingConsumer struct {
	*Consumer
	prod   *LVMProducer
	src    *logcursor.MachineSource
	reader *core.LogReader // legacyPullN's cursor

	Pulls   uint64
	Entries uint64

	// Quarantined: a pulled record failed validation. The consumer stops
	// consuming — nothing past damage can be trusted to be a real write
	// — and further pulls are no-ops, the same degrade-don't-panic
	// posture as crash recovery and the replication replica.
	Quarantined    bool
	InvalidRecords int
}

// NewStreamingConsumer attaches a consumer directly to the producer's log.
func NewStreamingConsumer(sys *core.System, p *core.Process, prod *LVMProducer, size uint32) (*StreamingConsumer, error) {
	c, err := NewConsumer(sys, p, size)
	if err != nil {
		return nil, err
	}
	return &StreamingConsumer{
		Consumer: c,
		prod:     prod,
		src:      logcursor.NewMachineSource(sys, prod.ls, prod.seg),
		reader:   core.NewLogReader(sys, prod.ls),
	}, nil
}

// Pull consumes any records logged since the last Pull, applying them to
// the replica. It returns how many updates arrived.
func (s *StreamingConsumer) Pull() int { return s.PullN(-1) }

// PullN consumes at most max log records (all of them if max < 0),
// applying those that belong to the shared segment. A bounded pull models
// a consumer that lags the producer: the replica must hold point-in-time
// values, so sub-word records are widened against the replica's own prior
// contents, never against the producer's (possibly newer) segment.
//
// Records cross a trust boundary here (the consumer applies another
// domain's log), so each one passes the shared logcursor validation; the
// first invalid record quarantines the stream and ends this consumer's
// pulling for good.
func (s *StreamingConsumer) PullN(max int) int {
	if s.Quarantined {
		return 0
	}
	s.sys.Sync()
	s.src.SetEnd(s.sys.K.LogAppendOffset(s.prod.ls))
	n := 0
	w := logcursor.NewWalker(logcursor.Config{
		View: logcursor.ApplyAll,
		End:  s.src.End(),
		Apply: func(r logcursor.Rec) {
			s.p.Compute(ApplyWordCycles)
			wd := r.Off &^ 3
			s.seg.Write32(wd, mergeWord(s.seg.Read32(wd), r.Off, r.Value, r.Size))
			n++
		},
	})
	for scanned := 0; max < 0 || scanned < max; scanned++ {
		rec, ok := s.src.Next()
		if !ok {
			break
		}
		if !w.Feed(rec) {
			break
		}
	}
	if st := w.Finish(); st.Quarantined() {
		s.Quarantined = true
		s.InvalidRecords += st.InvalidRecords
	}
	s.Pulls++
	s.Entries += uint64(n)
	s.BytesRecv += uint64(n * EntryBytes)
	return n
}

// ReleaseStreaming finalizes a critical section against a streaming
// consumer: one last Pull covers whatever the consumer had not yet seen
// (the backlog), and the producer's cost is only the synchronization.
func (p *LVMProducer) ReleaseStreaming(c *StreamingConsumer) (backlog int, producerCycles uint64, err error) {
	start := p.p.Now()
	p.reader.Sync() // the producer synchronizes on the end of the log
	if err := p.reader.Seek(p.sys.K.LogAppendOffset(p.ls)); err != nil {
		return 0, p.p.Now() - start, err
	}
	producerCycles = p.p.Now() - start
	backlog = c.Pull()
	return backlog, producerCycles, nil
}
