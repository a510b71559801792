package rescache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestKeyOfFraming(t *testing.T) {
	if KeyOf("fp", "ab", "c") == KeyOf("fp", "a", "bc") {
		t.Error("length framing failed: split point does not change the key")
	}
	if KeyOf("fp1", "x") == KeyOf("fp2", "x") {
		t.Error("fingerprint does not change the key")
	}
	if KeyOf("fp", "x") != KeyOf("fp", "x") {
		t.Error("key not deterministic")
	}
}

// value returns a Do function that computes v.
func value(v any) func() (any, error) { return func() (any, error) { return v, nil } }

func TestDoHitMiss(t *testing.T) {
	c := New(4)
	if v, hit, err := c.Do("k1", value(42)); err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do = %v, %v, %v", v, hit, err)
	}
	if v, hit, err := c.Do("k1", value(0)); err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do = %v, %v, %v", v, hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Do("a", value(1))
	c.Do("b", value(2))
	c.Do("a", value(1)) // refresh a: b is now least recently used
	c.Do("c", value(3))
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	if _, hit, _ := c.Do("a", value(0)); !hit {
		t.Error("a should have survived (recently used)")
	}
	if _, hit, _ := c.Do("c", value(0)); !hit {
		t.Error("c should be present")
	}
	if _, hit, _ := c.Do("b", value(2)); hit {
		t.Error("b should have been evicted")
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New(4)
	calls := 0
	fn := func() (any, error) { calls++; return "v", nil }
	v, hit, err := c.Do("k", fn)
	if err != nil || hit || v.(string) != "v" {
		t.Fatalf("first Do = %v, %v, %v", v, hit, err)
	}
	v, hit, err = c.Do("k", fn)
	if err != nil || !hit || v.(string) != "v" {
		t.Fatalf("second Do = %v, %v, %v", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("fn called %d times, want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Entries != 0 {
		t.Error("error was cached")
	}
	v, hit, err := c.Do("k", func() (any, error) { return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry Do = %v, %v, %v", v, hit, err)
	}
}

func TestDoDeduplicatesInflight(t *testing.T) {
	c := New(4)
	release := make(chan struct{})
	started := make(chan struct{})
	var calls int
	var mu sync.Mutex
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do("k", func() (any, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			close(started)
			<-release
			return "shared", nil
		})
	}()
	<-started

	const followers = 4
	var wg sync.WaitGroup
	results := make([]string, followers)
	hits := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do("k", func() (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return "own", nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			results[i] = v.(string)
			hits[i] = hit
		}(i)
	}

	// Wait for every follower to join the in-flight computation, then let
	// the leader finish.
	for {
		if st := c.Stats(); st.Dedups == followers {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-leaderDone

	for i := 0; i < followers; i++ {
		if results[i] != "shared" || !hits[i] {
			t.Errorf("follower %d: result %q hit %v, want shared/true", i, results[i], hits[i])
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if st := c.Stats(); st.Dedups != followers {
		t.Errorf("dedups = %d, want %d", st.Dedups, followers)
	}
}

func TestHitRate(t *testing.T) {
	var zero Stats
	if zero.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
	st := Stats{Hits: 2, Dedups: 1, Misses: 1}
	if got := st.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := Key(fmt.Sprintf("k%d", i%12))
				c.Do(k, value(i))
				c.Do(Key(fmt.Sprintf("extra%d-%d", g, i)), value(i))
			}
		}(g)
	}
	wg.Wait()
	if n := c.Stats().Entries; n > 8 {
		t.Errorf("len = %d exceeds capacity", n)
	}
}
