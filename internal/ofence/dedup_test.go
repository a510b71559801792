package ofence

import (
	"fmt"
	"math/rand"
	"testing"

	"ofence/internal/access"
	"ofence/internal/ctoken"
)

// TestDedupSitesShardedMatchesDedupSites checks the sharded dedup against
// the one-worker scan it falls back to, on random site lists drawn from a
// small identity space (so duplicates with ties and richer later views are
// common): the output must be the same sites in the same order at every
// worker count.
func TestDedupSitesShardedMatchesDedupSites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		sites := make([]*access.Site, rng.Intn(400))
		for j := range sites {
			sites[j] = &access.Site{
				Name:   fmt.Sprintf("b%d", rng.Intn(3)),
				Pos:    ctoken.Position{File: fmt.Sprintf("f%d.c", rng.Intn(4)), Line: 1 + rng.Intn(20)},
				Before: make([]*access.Access, rng.Intn(4)),
			}
		}
		want := dedupSites(sites)
		for _, workers := range []int{2, 3, 8, 16} {
			got := dedupSitesSharded(sites, workers)
			if len(got) != len(want) {
				t.Fatalf("list %d, workers=%d: %d sites, want %d", i, workers, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("list %d, workers=%d: site %d is %s, want %s", i, workers, k, got[k].ID(), want[k].ID())
				}
			}
		}
	}
}
