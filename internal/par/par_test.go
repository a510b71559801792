package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFor checks that every index runs exactly once, that no more than
// min(workers, n) goroutines beyond the caller's are live while the loop
// runs, and that they have all exited once the goroutine count settles.
func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000} {
		for _, workers := range []int{1, 2, 256} {
			base := runtime.NumGoroutine()
			calls := make([]atomic.Int32, n)
			var peak atomic.Int64
			For(n, workers, func(i int) {
				calls[i].Add(1)
				live := int64(runtime.NumGoroutine() - base)
				for cur := peak.Load(); live > cur && !peak.CompareAndSwap(cur, live); cur = peak.Load() {
				}
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times, want 1", n, workers, i, c)
				}
			}
			want := min(workers, n)
			if want <= 1 {
				want = 0 // inline on the caller's goroutine
			}
			if got := peak.Load(); got > int64(want) {
				t.Errorf("n=%d workers=%d: %d goroutines live, want at most %d", n, workers, got, want)
			}
			waitForGoroutines(t, base)
		}
	}
}

// waitForGoroutines waits until the goroutine count is back at base. A
// pool goroutine exits just after it signals completion, so the count may
// lag For's return briefly.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live after For returned, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
