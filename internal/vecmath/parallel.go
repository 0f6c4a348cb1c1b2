package vecmath

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the degree of parallelism for all kernels in this
// package. It is fixed at startup to GOMAXPROCS so that experiment results
// are stable for a given machine configuration.
var maxWorkers = runtime.GOMAXPROCS(0)

// ParallelFor splits [0, n) into at most maxWorkers contiguous chunks and
// invokes body(lo, hi) for each chunk on its own goroutine, waiting for all
// chunks to finish. body must be safe to run concurrently for disjoint
// ranges. For n smaller than the worker count the call degrades to a plain
// loop, avoiding goroutine overhead on tiny inputs.
func ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := maxWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			defer wg.Done()
			if lo < hi {
				body(lo, hi)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelMapReduce runs body over chunks of [0, n) like ParallelFor, but
// each chunk produces a float64 partial that is summed after all chunks
// complete. Used for parallel loss/metric accumulation where the reduction
// order must not affect correctness (addition of partials).
func ParallelMapReduce(n int, body func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	workers := maxWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return body(0, n)
	}
	partials := make([]float64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(w, lo, hi int) {
			defer wg.Done()
			if lo < hi {
				partials[w] = body(lo, hi)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, p := range partials {
		total += p
	}
	return total
}
