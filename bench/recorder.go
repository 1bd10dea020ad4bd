package main

import (
	"math"
	"slices"
	"time"
)

// recorder keeps the exact duration, in nanoseconds, of every operation
// one goroutine completes, grouped into equal time slices by completion
// time. Storage is preallocated: add never allocates, so the recorder
// costs the timed loop two stores and a compare. Slice 0 is the warm-up
// and is discarded by summarize.
type recorder struct {
	sliceNs int64
	samples []int64
	first   []int   // first[k]: index of slice k's first sample; first[len-1] closes the last slice
	lastEnd []int64 // completion time of slice k's last op, ns since the run started
	cur     int
	dropped int // samples that did not fit the preallocated storage
	// busy makes a slice's rate count only the time inside operations,
	// for a workload with untimed work (verification, tear-down) between
	// them.
	busy bool
}

func newRecorder(capacity int, slice time.Duration, slices int) *recorder {
	return &recorder{
		sliceNs: int64(slice),
		samples: make([]int64, 0, capacity),
		first:   make([]int, slices+1),
		lastEnd: make([]int64, slices),
	}
}

// add records an operation that completed endNs after the run started
// and took durNs. Completion times must not decrease.
func (r *recorder) add(endNs, durNs int64) {
	k := int(endNs / r.sliceNs)
	if last := len(r.lastEnd) - 1; k > last {
		k = last // an op that overruns the run belongs to the last slice
	}
	for r.cur < k {
		r.cur++
		r.first[r.cur] = len(r.samples)
		r.lastEnd[r.cur] = r.lastEnd[r.cur-1]
	}
	r.lastEnd[k] = endNs
	if len(r.samples) == cap(r.samples) {
		r.dropped++
		return
	}
	r.samples = append(r.samples, durNs)
}

// slice returns slice k's samples and the time its operations took to
// complete: from the previous slice's last completion to its own.
func (r *recorder) slice(k int) (samples []int64, spanNs int64) {
	hi := len(r.samples)
	if k < r.cur {
		hi = r.first[k+1]
	}
	if k > r.cur {
		return nil, 0
	}
	lo := r.first[k]
	if k == 0 {
		return r.samples[lo:hi], r.lastEnd[0]
	}
	return r.samples[lo:hi], r.lastEnd[k] - r.lastEnd[k-1]
}

// percentile is the nearest-rank percentile of sorted (ascending)
// samples: the smallest sample with at least p of the samples at or
// below it.
func percentile[T int64 | float64](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// dist is a value measured once per slice: its median over the slices
// and their quartiles.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"` // samples behind the value, all slices
}

// quartiles returns the quartiles of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method),
// so numbers here and in the acceptance script agree.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func distOf(vals []float64, n int) dist {
	if len(vals) == 0 {
		return dist{}
	}
	q1, q2, q3 := quartiles(vals)
	return dist{Median: q2, Q1: q1, Q3: q3, N: n}
}

// latencySummary is what the recorders of one op kind say about the
// measured slices.
type latencySummary struct {
	p50us, p99us, perSec dist
	dropped              int
}

// summarize merges the recorders of all goroutines that ran one op
// kind. Each measured slice yields a median, a 99th percentile (the
// slice maximum when the slice has fewer than 100 samples) and a rate;
// the summary is the median of each over the slices.
func summarize(recs []*recorder) latencySummary {
	var out latencySummary
	var p50s, p99s, rates []float64
	total := 0
	var scratch []int64
	for k := 1; k < len(recs[0].lastEnd); k++ {
		scratch = scratch[:0]
		rate := 0.0
		for _, r := range recs {
			s, span := r.slice(k)
			scratch = append(scratch, s...)
			if r.busy {
				span = 0
				for _, d := range s {
					span += d
				}
			}
			if span > 0 {
				rate += float64(len(s)) / (float64(span) / 1e9)
			}
		}
		if len(scratch) == 0 {
			continue
		}
		slices.Sort(scratch)
		total += len(scratch)
		p50s = append(p50s, float64(percentile(scratch, 0.50))/1e3)
		p99s = append(p99s, float64(percentile(scratch, 0.99))/1e3)
		rates = append(rates, rate)
	}
	for _, r := range recs {
		out.dropped += r.dropped
	}
	out.p50us, out.p99us, out.perSec = distOf(p50s, total), distOf(p99s, total), distOf(rates, total)
	return out
}
