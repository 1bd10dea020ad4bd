package metrics

// Accessors only the tests read: programs see counters and histograms
// through Snapshot.

// Name returns a histogram's snapshot name.
func (id HistID) Name() string { return histName[id] }

// Name returns a counter's snapshot name.
func (id ID) Name() string { return counterMeta[id].name }

// NumShards reports the shard count.
func (r *Registry) NumShards() int { return len(r.shards) }

// Get reads a counter (reads race with nothing
// because shards are single-writer and readers quiesce first).
func (s *Shard) Get(id ID) uint64 { return s.c[id] }

// Disable turns event recording off.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled = false
	}
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Reset empties the ring and clears the drop count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.head, t.n, t.dropped = 0, 0, 0
}
