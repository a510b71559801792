package rescache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Singleflight × eviction interaction suite: a key evicted while (or after)
// a flight is in progress must be recomputed on the next lookup — the cache
// must never serve a zombie entry, and flights must never resurrect one.

// TestSingleflightRecomputesAfterEviction: a computed entry that the LRU
// bound later evicts is recomputed by the next Do, not served stale.
func TestSingleflightRecomputesAfterEviction(t *testing.T) {
	c := New(1)
	var computes atomic.Int64
	fn := func() (any, error) {
		return fmt.Sprintf("gen-%d", computes.Add(1)), nil
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var firstVal any
	go func() {
		defer wg.Done()
		firstVal, _, _ = c.Do(Key("k"), func() (any, error) {
			close(started)
			<-release
			return fn()
		})
	}()
	<-started

	// While the flight runs, churn the cache (capacity 1): these entries
	// land and evict each other; the in-flight key is not yet stored.
	c.Do(Key("x"), value("x"))
	c.Do(Key("y"), value("y"))
	close(release)
	wg.Wait()
	if firstVal != "gen-1" {
		t.Fatalf("flight value = %v, want gen-1", firstVal)
	}

	// The flight's add evicted y; churn again so k itself is evicted.
	c.Do(Key("z"), value("z"))
	if st := c.Stats(); st.Evictions != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want k evicted by capacity-1 churn (3 evictions, 1 entry)", st)
	}

	// The next Do must recompute, not serve a zombie of gen-1.
	v, hit, err := c.Do(Key("k"), fn)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("Do after eviction reported a hit")
	}
	if v != "gen-2" {
		t.Fatalf("Do after eviction = %v, want freshly computed gen-2", v)
	}
}

// TestSingleflightJoinersShareEvictedFlight: joiners of an in-flight
// computation get that flight's value even if eviction churn removes the
// stored entry immediately — they share the flight, not the store.
func TestSingleflightJoinersShareEvictedFlight(t *testing.T) {
	c := New(1)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	leader := make(chan any, 1)
	go func() {
		v, _, _ := c.Do(Key("k"), func() (any, error) {
			close(started)
			<-release
			return fmt.Sprintf("gen-%d", computes.Add(1)), nil
		})
		leader <- v
	}()
	<-started

	const joiners = 8
	got := make(chan any, joiners)
	var joined sync.WaitGroup
	for i := 0; i < joiners; i++ {
		joined.Add(1)
		go func() {
			joined.Done()
			v, hit, _ := c.Do(Key("k"), func() (any, error) {
				t.Error("joiner ran the computation")
				return nil, nil
			})
			if !hit {
				t.Error("joiner did not report a hit")
			}
			got <- v
		}()
	}
	joined.Wait() // joiners registered (best effort; Do's dedup handles the rest)
	close(release)

	want := <-leader
	for i := 0; i < joiners; i++ {
		if v := <-got; v != want {
			t.Fatalf("joiner got %v, leader got %v", v, want)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1", n)
	}
}

// TestSingleflightEvictionStress hammers Do over a tiny cache with
// generation-tagged values and asserts no lookup ever observes a value for
// the wrong key (run under -race via make race-service / test-race).
func TestSingleflightEvictionStress(t *testing.T) {
	c := New(2)
	keys := []Key{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := keys[(g+i)%len(keys)]
				v, _, err := c.Do(k, func() (any, error) {
					return "val-" + string(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != "val-"+string(k) {
					t.Errorf("Do(%s) = %v (cross-key zombie)", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
