// Package parallel is a single-goroutine stub of the real
// internal/parallel kernels — just enough signature surface for the
// parallelpurity fixtures. The analyzer matches callees by package path
// suffix, so this package's synthetic import path ends in
// "internal/parallel" like the real one.
package parallel

func For(n, grain int, fn func(lo, hi int)) {
	if n > 0 {
		fn(0, n)
	}
}

func Reduce[T any](n, grain int, chunk func(lo, hi int) T, merge func(acc, next T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	return merge(zero, chunk(0, n))
}

func Map[R any](n, grain int, fn func(i int) R) []R {
	out := make([]R, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}
