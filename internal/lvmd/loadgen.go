package lvmd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lvm/internal/logship"
	"lvm/internal/wire"
)

// Client is one synchronous lvmd protocol client: one in-flight request
// at a time (the load generator gets concurrency from many clients, as
// the paper's Section 4 workloads get it from many processes).
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	seq  uint64
	buf  []byte // a commit's writes tail, reused across commits
}

// DialClient connects and returns a protocol client.
func DialClient(dial logship.DialFunc) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

func (c *Client) Close() error { return c.conn.Close() }

// SubscribeDialer wraps a client-port dialer into a replication dialer
// for one shard: each connection opens with a subscribe frame, after
// which the server hands the socket to that shard's shipper and the
// logship handshake proceeds as usual. This is how a standby daemon
// follows a primary — one subscribed replica per shard.
func SubscribeDialer(dial logship.DialFunc, shard uint32) logship.DialFunc {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		if _, err := conn.Write(wire.Encode(&wire.Subscribe{Shard: shard})); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

// call writes a request's frames and reads the one response, which must
// be a T.
func call[T wire.Msg](c *Client, frames []byte) (T, error) {
	var resp T
	if _, err := c.conn.Write(frames); err != nil {
		return resp, err
	}
	m, err := wire.ReadMsg(c.r)
	resp, ok := m.(T)
	if err == nil && !ok {
		err = fmt.Errorf("lvmd: got %T, want %T", m, resp)
	}
	return resp, err
}

// Open maps a segment, returning its slot geometry.
func (c *Client) Open(segID uint64) (slotSize uint32, err error) {
	resp, err := call[*wire.OpenResp](c, wire.Encode(&wire.Open{SegID: segID}))
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, fmt.Errorf("lvmd: open segment %d: status %d", segID, resp.Status)
	}
	return resp.SlotSize, nil
}

// Commit sends the transaction as one commit frame carrying its writes,
// and waits for the durable acknowledgement.
func (c *Client) Commit(segID uint64, writes []Write) error {
	buf := c.buf[:0]
	for _, w := range writes {
		buf = wire.AppendWrite(buf, w.Off, w.Val)
	}
	c.buf = buf
	c.seq++
	resp, err := call[*wire.CommitResp](c, wire.Encode(&wire.Commit{SegID: segID, ClientSeq: c.seq, Writes: buf}))
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("lvmd: commit segment %d: status %d", segID, resp.Status)
	}
	if resp.ClientSeq != c.seq {
		return fmt.Errorf("lvmd: commit ack for seq %d, want %d", resp.ClientSeq, c.seq)
	}
	return nil
}

// Read returns committed segment bytes.
func (c *Client) Read(segID uint64, off, n uint32) ([]byte, error) {
	resp, err := call[*wire.ReadResp](c, wire.Encode(&wire.Read{SegID: segID, Off: off, N: n}))
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("lvmd: read segment %d: status %d", segID, resp.Status)
	}
	return resp.Data, nil
}

// Stats fetches the daemon's host counters.
func (c *Client) Stats() (HostStats, error) {
	var hs HostStats
	resp, err := call[*wire.StatsResp](c, wire.Encode(&wire.Stats{}))
	if err != nil {
		return hs, err
	}
	err = json.Unmarshal(resp.JSON, &hs)
	return hs, err
}

// LoadConfig drives a fleet of simulated clients.
type LoadConfig struct {
	Dial     logship.DialFunc
	Clients  int
	Segments int
	Duration time.Duration
	// Rate is the fleet-wide target commits/sec (0 = closed loop: every
	// client commits back-to-back). A nonzero rate is an open-loop
	// arrival model: each client's transactions arrive on an absolute
	// wall-clock schedule regardless of how long earlier commits took, so
	// a slow server accumulates a backlog (reported as queue depth)
	// instead of silently shedding offered load the way coordinated
	// pacing would.
	Rate float64
	// StoresPerCommit is the transaction size (default 4); VerifyEvery
	// makes every Nth operation a read-back check (0 = never).
	StoresPerCommit int
	VerifyEvery     int
}

// ModelEntry is the acked-state model for one word: the last
// acknowledged value and any values sent later whose acks never arrived
// (in-doubt after a kill — the server may or may not have applied them).
type ModelEntry struct {
	Seg     uint64   `json:"seg"`
	Off     uint32   `json:"off"`
	Acked   uint32   `json:"acked"`
	HasAck  bool     `json:"has_ack"`
	InDoubt []uint32 `json:"in_doubt,omitempty"`
}

// Model is the client fleet's view of what the server must hold.
type Model struct {
	Entries []ModelEntry `json:"entries"`
}

// LoadResult is one load run's outcome.
type LoadResult struct {
	Clients     int     `json:"clients"`
	Segments    int     `json:"segments"`
	Seconds     float64 `json:"seconds"`
	Sent        uint64  `json:"sent"`
	Acked       uint64  `json:"acked"`
	Failed      uint64  `json:"failed"` // commits refused or errored (not conn death)
	Deaths      uint64  `json:"deaths"` // clients whose connection died
	Reads       uint64  `json:"reads"`
	ReadErrors  uint64  `json:"read_errors"`
	CommitsPerS float64 `json:"commits_per_sec"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	P99us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`
	// Open-loop backlog (Rate > 0 only): arrivals whose scheduled time
	// had already passed when the client got to them. A depth that grows
	// with the run means the offered rate exceeds capacity.
	QueueMaxDepth uint64  `json:"queue_max_depth,omitempty"`
	QueueAvgDepth float64 `json:"queue_avg_depth,omitempty"`
	Hist          []uint64
	Host          *HostStats `json:"host,omitempty"`
}

// latHist is a lock-free power-of-two latency histogram (bucket i holds
// samples with bits.Len64(ns) == i).
type latHist [65]atomic.Uint64

func (h *latHist) observe(d time.Duration) {
	h[bits.Len64(uint64(d.Nanoseconds()))].Add(1)
}

func (h *latHist) percentile(p float64) float64 {
	var total uint64
	for i := range h {
		total += h[i].Load()
	}
	if total == 0 {
		return 0
	}
	want := uint64(p * float64(total))
	var seen uint64
	for i := range h {
		seen += h[i].Load()
		if seen > want {
			return float64(uint64(1)<<i) / 1e3 // bucket upper bound, µs
		}
	}
	return 0
}

// RunLoad drives the fleet and returns the result plus the acked-state
// model. Client i owns a fixed set of words in segment (i mod Segments):
// word indexes congruent to its per-segment rank, so every word has
// exactly one writer and the model is exact.
func RunLoad(cfg LoadConfig) (LoadResult, *Model, error) {
	if cfg.Clients <= 0 || cfg.Segments <= 0 {
		return LoadResult{}, nil, fmt.Errorf("lvmd: load needs clients and segments")
	}
	if cfg.StoresPerCommit <= 0 {
		cfg.StoresPerCommit = 4
	}
	clientsPerSeg := (cfg.Clients + cfg.Segments - 1) / cfg.Segments
	// Probe the slot geometry first: the word-ownership scheme only stays
	// single-writer while every client's words fit without wrapping.
	probe, err := DialClient(cfg.Dial)
	if err != nil {
		return LoadResult{}, nil, fmt.Errorf("lvmd: load probe: %w", err)
	}
	slotSize, err := probe.Open(1)
	probe.Close()
	if err != nil {
		return LoadResult{}, nil, fmt.Errorf("lvmd: load probe: %w", err)
	}
	if need := uint32(clientsPerSeg * cfg.StoresPerCommit * 4); need > slotSize {
		return LoadResult{}, nil, fmt.Errorf(
			"lvmd: %d clients × %d stores need %d-byte slots, server offers %d",
			cfg.Clients, cfg.StoresPerCommit, need, slotSize)
	}
	var (
		sent, acked, failed, deaths, reads, readErrs atomic.Uint64
		depthSum, depthN, depthMax                   atomic.Uint64
		hist                                         latHist
		wg                                           sync.WaitGroup
		modelMu                                      sync.Mutex
	)
	model := make(map[uint64]map[uint32]*ModelEntry) // seg → off → entry
	deadline := time.Now().Add(cfg.Duration)
	var pace time.Duration
	if cfg.Rate > 0 {
		pace = time.Duration(float64(cfg.Clients) / cfg.Rate * float64(time.Second))
	}
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			segID := uint64(i%cfg.Segments) + 1
			rank := uint32(i / cfg.Segments)
			cl, err := DialClient(cfg.Dial)
			if err != nil {
				deaths.Add(1)
				return
			}
			defer cl.Close()
			slotSize, err := cl.Open(segID)
			if err != nil {
				deaths.Add(1)
				return
			}
			words := slotSize / 4
			local := make(map[uint32]*ModelEntry)
			defer func() {
				modelMu.Lock()
				seg := model[segID]
				if seg == nil {
					seg = make(map[uint32]*ModelEntry)
					model[segID] = seg
				}
				for off, e := range local {
					seg[off] = e
				}
				modelMu.Unlock()
			}()
			writes := make([]Write, cfg.StoresPerCommit)
			for n := uint32(0); time.Now().Before(deadline); n++ {
				if pace > 0 {
					// Open loop: the nth arrival is due at an absolute time;
					// if it is already overdue, the client injects immediately
					// and the arrears count as queue depth.
					next := start.Add(time.Duration(i)*pace/time.Duration(cfg.Clients) +
						time.Duration(n)*pace)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					} else {
						depth := uint64(-d/pace) + 1
						depthSum.Add(depth)
						for {
							cur := depthMax.Load()
							if depth <= cur || depthMax.CompareAndSwap(cur, depth) {
								break
							}
						}
					}
					depthN.Add(1)
				}
				if cfg.VerifyEvery > 0 && n > 0 && n%uint32(cfg.VerifyEvery) == 0 {
					off := writes[0].Off
					want := local[off]
					b, err := cl.Read(segID, off, 4)
					reads.Add(1)
					if err != nil {
						deaths.Add(1)
						return
					}
					if want != nil && want.HasAck && !modelAccepts(want, binary.LittleEndian.Uint32(b)) {
						readErrs.Add(1)
					}
					continue
				}
				for k := range writes {
					word := (rank + uint32(k)*uint32(clientsPerSeg)) % words
					writes[k] = Write{Off: word * 4, Val: uint32(i)<<16 | (n & 0xFFFF)}
				}
				for _, w := range writes {
					e := local[w.Off]
					if e == nil {
						e = &ModelEntry{Seg: segID, Off: w.Off}
						local[w.Off] = e
					}
					e.InDoubt = append(e.InDoubt, w.Val)
				}
				sent.Add(1)
				t0 := time.Now()
				if err := cl.Commit(segID, writes); err != nil {
					deaths.Add(1)
					return
				}
				hist.observe(time.Since(t0))
				acked.Add(1)
				for _, w := range writes {
					e := local[w.Off]
					e.Acked, e.HasAck, e.InDoubt = w.Val, true, e.InDoubt[:0]
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	res := LoadResult{
		Clients:  cfg.Clients,
		Segments: cfg.Segments,
		Seconds:  elapsed,
		Sent:     sent.Load(), Acked: acked.Load(), Failed: failed.Load(),
		Deaths: deaths.Load(), Reads: reads.Load(), ReadErrors: readErrs.Load(),
		P50us: hist.percentile(0.50), P95us: hist.percentile(0.95),
		P99us:         hist.percentile(0.99),
		QueueMaxDepth: depthMax.Load(),
	}
	if n := depthN.Load(); n > 0 {
		res.QueueAvgDepth = float64(depthSum.Load()) / float64(n)
	}
	if elapsed > 0 {
		res.CommitsPerS = float64(res.Acked) / elapsed
	}
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].Load() > 0 {
			res.MaxUs = float64(uint64(1)<<i) / 1e3
			break
		}
	}
	res.Hist = make([]uint64, len(hist))
	for i := range hist {
		res.Hist[i] = hist[i].Load()
	}
	m := &Model{}
	for _, seg := range model {
		for _, e := range seg {
			if e.HasAck || len(e.InDoubt) > 0 {
				m.Entries = append(m.Entries, *e)
			}
		}
	}
	sort.Slice(m.Entries, func(a, b int) bool {
		if m.Entries[a].Seg != m.Entries[b].Seg {
			return m.Entries[a].Seg < m.Entries[b].Seg
		}
		return m.Entries[a].Off < m.Entries[b].Off
	})
	return res, m, nil
}

// modelAccepts reports whether a read-back value is consistent with the
// model: the last acked value, or any in-doubt value sent after it.
func modelAccepts(e *ModelEntry, got uint32) bool {
	if e.HasAck && got == e.Acked {
		return true
	}
	if !e.HasAck && got == 0 {
		return true // never acked, never applied
	}
	for _, v := range e.InDoubt {
		if got == v {
			return true
		}
	}
	return false
}

// VerifyModel reads every modeled word back and checks it. Words whose
// writers died mid-commit accept their in-doubt values. Returns how many
// words were checked and the mismatches.
func VerifyModel(dial logship.DialFunc, m *Model) (checked int, mismatches []string, err error) {
	cl, err := DialClient(dial)
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	opened := make(map[uint64]bool)
	for i := range m.Entries {
		e := &m.Entries[i]
		if !opened[e.Seg] {
			if _, err := cl.Open(e.Seg); err != nil {
				return checked, mismatches, fmt.Errorf("open segment %d: %w", e.Seg, err)
			}
			opened[e.Seg] = true
		}
		b, err := cl.Read(e.Seg, e.Off, 4)
		if err != nil {
			return checked, mismatches, fmt.Errorf("read %d/%d: %w", e.Seg, e.Off, err)
		}
		checked++
		if got := binary.LittleEndian.Uint32(b); !modelAccepts(e, got) {
			mismatches = append(mismatches, fmt.Sprintf(
				"seg %d off %d: got %#x, want acked %#x (in-doubt %v)",
				e.Seg, e.Off, got, e.Acked, e.InDoubt))
		}
	}
	return checked, mismatches, nil
}
