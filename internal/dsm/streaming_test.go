package dsm

// The streaming consumer of Section 2.6 is exercised only by tests, so it
// lives here with them.

import (
	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
)

// StreamingConsumer pulls updates from an LVM producer's log *during* the
// critical section, so that "the time for processing on lock release
// (when these updates are flushed) is reduced to the time required to
// synchronize with consumers. That is, there should be little or no
// backlog of data updates to transmit at this time" (Section 2.6).
type StreamingConsumer struct {
	*Consumer
	prod   *LVMProducer
	log    *core.LogReader // PullN's cursor
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
		log:      core.NewLogReader(sys, prod.ls),
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
	end := s.sys.K.LogAppendOffset(s.prod.ls)
	stop := uint64(end)
	if max >= 0 {
		stop = min(stop, uint64(s.log.Offset())+uint64(max)*logrec.Size)
	}
	s.log.SetEnd(uint32(stop))
	n := 0
	w := logcursor.NewWalker(logcursor.Config{
		View: logcursor.ApplyAll,
		End:  end,
		Apply: func(r logcursor.Rec) {
			s.p.Compute(ApplyWordCycles)
			wd := r.Off &^ 3
			s.seg.Write32(wd, mergeWord(s.seg.Read32(wd), r.Off, r.Value, r.Size))
			n++
		},
	})
	// A MachineReader fails only at its end (io.EOF), so the walk
	// returns no read error.
	if st, _ := logcursor.RunReader(logcursor.NewMachineReader(s.log, s.prod.seg), s.prod.seg.Size(), w); st.Quarantined() {
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
