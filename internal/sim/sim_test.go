package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrder(t *testing.T) {
	for _, w := range []int{1, 2, 8, 33} {
		SetWorkers(w)
		t.Cleanup(func() { SetWorkers(0) })
		out, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len = %d", w, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	SetWorkers(8)
	t.Cleanup(func() { SetWorkers(0) })
	out, err := Map(64, func(i int) (int, error) {
		if i == 7 || i == 40 {
			return 0, fmt.Errorf("point %d failed", i)
		}
		return i, nil
	})
	if out != nil {
		t.Fatalf("results on error: %v", out)
	}
	if err == nil || err.Error() != "point 7 failed" {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
}

func TestMapEachIndexOnce(t *testing.T) {
	SetWorkers(16)
	t.Cleanup(func() { SetWorkers(0) })
	var calls [500]atomic.Int64
	if err := Do(len(calls), func(i int) error {
		calls[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("index %d called %d times", i, n)
		}
	}
}

// TestMapWorkersLastFirst checks that the pool hands out the last indices
// first. The first two calls wait for each other, so they are the two
// workers' first claims whatever the goroutine scheduling.
func TestMapWorkersLastFirst(t *testing.T) {
	const n = 10
	var mu sync.Mutex
	var first []int
	both := make(chan struct{})
	out, err := MapWorkers(2, n, func(i int) (int, error) {
		mu.Lock()
		if len(first) < 2 {
			first = append(first, i)
			if len(first) == 2 {
				close(both)
			}
			mu.Unlock()
			<-both
			return i, nil
		}
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: results not in input order", i, v)
		}
	}
	slices.Sort(first)
	if !slices.Equal(first, []int{n - 2, n - 1}) {
		t.Fatalf("first claims = %v, want [%d %d]", first, n-2, n-1)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || out != nil {
		t.Fatalf("empty sweep: %v, %v", out, err)
	}
}

func TestFlatMapOrder(t *testing.T) {
	SetWorkers(4)
	t.Cleanup(func() { SetWorkers(0) })
	out, err := FlatMap(10, func(i int) ([]int, error) {
		return []int{i * 10, i*10 + 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 0; i < 10; i++ {
		if out[2*i] != i*10 || out[2*i+1] != i*10+1 {
			t.Fatalf("chunk %d out of order: %v", i, out[2*i:2*i+2])
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(-5)
	if Workers() < 1 {
		t.Fatalf("Workers() after reset = %d", Workers())
	}
}
