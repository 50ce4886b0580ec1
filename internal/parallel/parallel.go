// Package parallel provides small deterministic fork-join helpers for the
// mapping kernels: a chunked parallel loop, an index-ordered reduction, and
// an index-ordered map.
//
// Determinism contract: every helper produces a result that is bit-identical
// for any GOMAXPROCS value, including 1. Two rules make that hold:
//
//  1. Chunk boundaries are fixed by the problem size and the caller's grain,
//     never by the worker count. Workers pull chunks dynamically, but which
//     indices share a floating-point accumulator is always the same.
//  2. Per-chunk partial results are merged strictly in ascending index
//     order — exactly the semantics of the serial loops they replace.
//
// The worker count comes from runtime.GOMAXPROCS(0) at call time, capped by
// the number of chunks; when only one worker would run, the helpers execute
// inline with no goroutines (but the same chunk structure, so sums still
// associate identically).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunks returns the number of fixed-size chunks of the given grain needed
// to cover [0, n), normalizing grain to at least 1.
func chunks(n, grain int) (nchunks, g int) {
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain, grain
}

// workers returns how many goroutines to use for nchunks chunks.
func workers(nchunks int) int {
	w := runtime.GOMAXPROCS(0)
	if w > nchunks {
		w = nchunks
	}
	return w
}

// For runs fn over every subrange [lo, hi) of a fixed-grain partition of
// [0, n), in parallel. fn must only write state disjoint across indices;
// under that contract the result is identical to the serial loop
// fn(0, n) regardless of worker count.
//
//lint:hotpath parallel kernel body: per-index path must stay allocation-free at any GOMAXPROCS
func For(n, grain int, fn func(lo, hi int)) {
	// g, not a reassigned grain: the workers capture it, and a captured
	// variable that is assigned twice lives on the heap — one allocation
	// per call, inline path included.
	nchunks, g := chunks(n, grain)
	if nchunks == 0 {
		return
	}
	w := workers(nchunks)
	if w <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		//lint:ignore hotalloc one worker goroutine and closure per call, amortized over the n-element loop; the per-index path is allocation-free
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * g
				hi := lo + g
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Reduce folds a fixed-grain partition of [0, n): chunk computes a partial
// result for [lo, hi), and the partials are merged with merge(acc, next) in
// ascending chunk order. Because the partition depends only on n and grain,
// the result — floating-point association included — is bit-identical for
// every worker count. Reduce returns the zero value of T when n <= 0.
//
//lint:hotpath parallel kernel body: per-index path must stay allocation-free at any GOMAXPROCS
func Reduce[T any](n, grain int, chunk func(lo, hi int) T, merge func(acc, next T) T) T {
	var zero T
	nchunks, g := chunks(n, grain)
	if nchunks == 0 {
		return zero
	}
	w := workers(nchunks)
	if w <= 1 {
		acc := chunk(0, min(g, n))
		for c := 1; c < nchunks; c++ {
			lo := c * g
			hi := lo + g
			if hi > n {
				hi = n
			}
			acc = merge(acc, chunk(lo, hi))
		}
		return acc
	}
	//lint:ignore hotalloc one partial-results slice per call, amortized over the n-element reduction
	partial := make([]T, nchunks)
	//lint:ignore hotalloc O(1) capturing closure per call; chunk bodies run allocation-free
	For(n, g, func(lo, hi int) {
		partial[lo/g] = chunk(lo, hi)
	})
	acc := partial[0]
	for c := 1; c < nchunks; c++ {
		acc = merge(acc, partial[c])
	}
	return acc
}

// Map evaluates fn at every index of [0, n) in parallel and returns the
// results in index order. Each index writes only its own slot, so the
// output is identical to the serial loop for any worker count; fn itself
// must not depend on evaluation order. Grain trades scheduling overhead
// against load balance exactly as in For.
//
//lint:hotpath parallel kernel body: per-index path must stay allocation-free at any GOMAXPROCS
func Map[R any](n, grain int, fn func(i int) R) []R {
	if n <= 0 {
		return nil
	}
	//lint:ignore hotalloc the result slice is the kernel's contract; one allocation per call
	out := make([]R, n)
	//lint:ignore hotalloc O(1) capturing closure per call; the per-index path is allocation-free
	For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}
