package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

// TestRecorderMatchesSortedReference feeds the recorder a seeded stream
// of durations and checks every slice statistic against a reference
// computed the slow way from a sorted copy.
func TestRecorderMatchesSortedReference(t *testing.T) {
	const slices, sliceNs = 6, int64(time.Millisecond)
	rec := newRecorder(1<<16, time.Duration(sliceNs), slices)
	r := newRNG(7)
	ref := make([][]int64, slices)
	lastEnd := make([]int64, slices)
	now := int64(0)
	for now < slices*sliceNs {
		d := int64(r.intn(5000)) + 1
		now += d + int64(r.intn(50))
		k := int(now / sliceNs)
		if k >= slices {
			k = slices - 1
		}
		rec.add(now, d)
		ref[k] = append(ref[k], d)
		lastEnd[k] = now
	}
	got := summarize([]*recorder{rec})
	var p50s, p99s, rates []float64
	n := 0
	for k := 1; k < slices; k++ {
		s := append([]int64(nil), ref[k]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		// Nearest rank, counted rather than indexed.
		rank := func(p float64) int64 {
			for _, x := range s {
				le := 0
				for _, y := range s {
					if y <= x {
						le++
					}
				}
				if float64(le) >= p*float64(len(s)) {
					return x
				}
			}
			return s[len(s)-1]
		}
		p50s = append(p50s, float64(rank(0.50))/1e3)
		p99s = append(p99s, float64(rank(0.99))/1e3)
		rates = append(rates, float64(len(s))/(float64(lastEnd[k]-lastEnd[k-1])/1e9))
		n += len(s)
	}
	want := latencySummary{p50us: distOf(p50s, n), p99us: distOf(p99s, n), perSec: distOf(rates, n)}
	if got != want {
		t.Fatalf("summary differs from the sorted reference:\n got %+v\nwant %+v", got, want)
	}
	if got.p50us.N == 0 || got.p50us.Median <= 0 {
		t.Fatalf("empty summary: %+v", got)
	}
}

func TestRecorderAddDoesNotAllocate(t *testing.T) {
	rec := newRecorder(1<<12, time.Millisecond, 6)
	now := int64(0)
	if a := testing.AllocsPerRun(1000, func() { now += 3000; rec.add(now, 2500) }); a != 0 {
		t.Fatalf("add allocates %.1f times per call", a)
	}
	// Past its capacity the recorder counts drops and still allocates nothing.
	small := newRecorder(4, time.Millisecond, 6)
	for i := int64(1); i <= 10; i++ {
		small.add(i*1000, 10)
	}
	if small.dropped != 6 || len(small.samples) != 4 {
		t.Fatalf("dropped %d kept %d, want 6 and 4", small.dropped, len(small.samples))
	}
}

func TestRecorderSkippedSliceIsEmpty(t *testing.T) {
	rec := newRecorder(16, time.Millisecond, 4)
	rec.add(int64(500*time.Microsecond), 100)  // slice 0
	rec.add(int64(3500*time.Microsecond), 200) // slice 3, slices 1 and 2 empty
	for k, wantN := range []int{1, 0, 0, 1} {
		if s, _ := rec.slice(k); len(s) != wantN {
			t.Fatalf("slice %d holds %d samples, want %d", k, len(s), wantN)
		}
	}
	if got := summarize([]*recorder{rec}); got.p50us.Median != 0.2 || got.p50us.N != 1 {
		t.Fatalf("summary over one non-empty measured slice: %+v", got)
	}
}

// TestQuartilesMatchPython pins the quartile method to
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}
