// Package sim is the host-side parallel sweep-execution engine.
//
// Every figure and ablation of the paper's evaluation is a sweep of
// independent points: each point boots its own machine.Machine /
// core.System, runs a deterministic single-threaded simulation, and
// reports numbers denominated in simulated cycles. Points share nothing,
// so the host may run them concurrently without perturbing the science —
// the simulated machine remains deterministic and single-threaded per
// instance; only wall-clock time changes.
//
// Map runs a sweep on a pool of worker goroutines (default size
// GOMAXPROCS, overridable with SetWorkers or lvmbench -parallel). The pool
// dispatches points last to first, which is longest-first because every
// sweep lists its points cheapest-first, and collects results in input
// order, so the output of a parallel sweep is byte-identical to a
// sequential one. The determinism regression test in
// internal/experiments asserts exactly that for Figures 7 and 11.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool size; 0 means "use GOMAXPROCS".
var workers atomic.Int64

// Workers reports the worker-pool size sweeps will use.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the worker-pool size. n <= 0 restores the default
// (GOMAXPROCS). n == 1 forces fully sequential execution.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Map runs fn(0..n-1) across the worker pool and returns the results in
// input order. Each fn call must be self-contained (build its own machine
// instances); fn is never called twice for the same index. If any call
// fails, Map returns the error of the lowest failing index — the same
// error a sequential loop would have surfaced first — and the results
// slice is nil.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkers(Workers(), n, fn)
}

// MapWorkers is Map with an explicit worker count for this call only,
// independent of the global pool setting. Callers that parallelize inside
// one simulation (e.g. partitioned log recovery) use it so they never race
// with a concurrently configured sweep pool.
func MapWorkers[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	nw := workers
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	// Indices go out last to first (longest-first, see the package doc),
	// so the costliest point never starts last while the others idle.
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(-1))
				if i < 0 {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Do is Map for sweeps whose points only produce side effects local to
// the caller's per-index state.
func Do(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// FlatMap runs fn across the pool like Map and concatenates the result
// slices in input order. Sweeps whose points each produce several rows
// (e.g. one Figure 9 segment size yielding a row per dirty fraction) use
// it to keep the flattened row order identical to a sequential run.
func FlatMap[T any](n int, fn func(i int) ([]T, error)) ([]T, error) {
	chunks, err := Map(n, fn)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]T, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}
