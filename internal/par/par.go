// Package par is the analyzer's one fan-out helper: a bounded pool of
// goroutines that claim loop indices. Every parallel phase of the analysis
// (front-end extraction, call-graph summaries, semantics inference, check
// and rank) runs through For, so the pool's rules — how many goroutines,
// when to stay inline — live in one place.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) once for every i in [0, n) and returns when all calls
// have returned. It starts min(workers, n) goroutines, each claiming the
// next unclaimed index, and runs the loop on the caller's goroutine when
// that count is at most 1. Calls may run in any order and concurrently,
// so fn must write only what index i owns; fn checks a context itself
// when the loop should stop early.
func For(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
