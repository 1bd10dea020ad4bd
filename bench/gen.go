package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"lvm/internal/lvmd"
)

// rng is splitmix64: tiny, seedable, and good enough to scatter offsets.
// The benchmark owns its generator so an op stream depends on the seed
// alone, never on the Go release's math/rand.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a list of
// stream selectors (workload, client index).
func newRNG(seed uint64, sel ...uint64) rng {
	r := rng{s: seed}
	for _, v := range sel {
		r.s = r.next() ^ v*0x9E3779B97F4A7C15
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

type opKind uint8

const (
	opCommit opKind = iota
	opRead
)

// op is one generated client request. writes aliases the stream's
// buffer and is valid until the next call to next.
type op struct {
	kind   opKind
	seg    uint64
	writes []lvmd.Write
	off, n uint32
}

// streamSpec is the traffic shape of one serving workload.
type streamSpec struct {
	segments int    // tenant segments, IDs 1..segments
	stores   int    // word stores per commit
	readPct  int    // share of ops that are reads, in percent
	readLen  uint32 // bytes per read
	slotSize uint32 // bytes per tenant slot
	clients  int
}

// opStream generates one client's requests. Client c owns the words
// whose index is congruent to c modulo the client count, in every
// segment: each word has one writer, so the acked-state model is exact,
// and offsets within a commit are distinct, so the logger absorbs
// nothing and tail bytes per user byte is a fixed number.
type opStream struct {
	spec  streamSpec
	r     rng
	owned []uint32 // word indexes this client may store to
	buf   []lvmd.Write
}

func newOpStream(spec streamSpec, seed uint64, workload string, client int) *opStream {
	s := &opStream{spec: spec, buf: make([]lvmd.Write, spec.stores)}
	var wl uint64
	for _, b := range []byte(workload) {
		wl = wl*131 + uint64(b)
	}
	s.r = newRNG(seed, wl, uint64(client))
	for w := uint32(client); w < spec.slotSize/4; w += uint32(spec.clients) {
		s.owned = append(s.owned, w)
	}
	return s
}

func (s *opStream) next() op {
	seg := uint64(s.r.intn(s.spec.segments)) + 1
	if s.spec.readPct > 0 && s.r.intn(100) < s.spec.readPct {
		span := (s.spec.slotSize - s.spec.readLen) / 4
		return op{kind: opRead, seg: seg, off: uint32(s.r.intn(int(span)+1)) * 4, n: s.spec.readLen}
	}
	// Partial Fisher-Yates over the owned words: the first `stores`
	// entries after the shuffle step are distinct.
	for i := range s.buf {
		j := i + s.r.intn(len(s.owned)-i)
		s.owned[i], s.owned[j] = s.owned[j], s.owned[i]
		s.buf[i] = lvmd.Write{Off: s.owned[i] * 4, Val: uint32(s.r.next()) | 1}
	}
	return op{kind: opCommit, seg: seg, writes: s.buf}
}

// streamDigest hashes the first n ops of every client's stream: the
// fingerprint of a workload's input for one seed.
func streamDigest(spec streamSpec, seed uint64, workload string, n int) string {
	h := sha256.New()
	var b [24]byte
	for c := 0; c < spec.clients; c++ {
		s := newOpStream(spec, seed, workload, c)
		for i := 0; i < n; i++ {
			o := s.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(b[1:], o.seg)
			binary.LittleEndian.PutUint32(b[9:], o.off)
			binary.LittleEndian.PutUint32(b[13:], o.n)
			h.Write(b[:17])
			for _, w := range o.writes {
				binary.LittleEndian.PutUint32(b[0:], w.Off)
				binary.LittleEndian.PutUint32(b[4:], w.Val)
				h.Write(b[:8])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
