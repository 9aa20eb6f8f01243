package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ChunkRows is the row count of one chunk in the row-parallel kernels
// (Gram, and the solver's per-mode ADMM step). Each chunk reduces into its
// own partial and the partials are combined in chunk order, so the chunk
// size — never the worker count — fixes the summation order: results are
// bit-identical at any GOMAXPROCS.
const ChunkRows = 1024

// NumChunks returns the number of ChunkRows-row chunks covering rows.
func NumChunks(rows int) int { return (rows + ChunkRows - 1) / ChunkRows }

// ForChunks calls fn(c, lo, hi) for every chunk c = rows [lo, hi) of a
// rows-row matrix, on up to GOMAXPROCS goroutines, and returns once every
// call has. Calls for distinct chunks may run concurrently, so fn must only
// write state owned by its chunk.
func ForChunks(rows int, fn func(c, lo, hi int)) {
	ParallelFor(NumChunks(rows), func(c int) {
		lo := c * ChunkRows
		fn(c, lo, min(rows, lo+ChunkRows))
	})
}

// ParallelFor calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines that pull indices from a shared counter, and returns once
// every call has. With one worker it runs inline, in index order.
func ParallelFor(n int, fn func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
