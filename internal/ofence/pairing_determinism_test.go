package ofence_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ofence/internal/access"
	"ofence/internal/corpus"
	"ofence/internal/ofence"
)

// TestPairingJSONDeterministic is the parallel-pairing determinism suite:
// the -json projection of the fixture corpus must be byte-identical across
// Workers=1, several wider pools, and GOMAXPROCS 1/2/8. Only per-index
// work (extraction, check, rank) fans out; pairing and every
// order-sensitive step run on one goroutine in canonical site order, so
// any divergence here is an engine bug, not schedule noise.
func TestPairingJSONDeterministic(t *testing.T) {
	c := corpus.Generate(corpus.DefaultConfig(29))
	srcs := c.Sources()

	analyze := func(workers int) string {
		p := ofence.NewProject()
		p.AddSources(srcs)
		opts := ofence.DefaultOptions()
		opts.Workers = workers
		return viewJSON(t, mustAnalyze(t, p, opts))
	}

	want := analyze(1) // sequential pairing: the reference output

	for _, workers := range []int{2, 4, 8} {
		if got := analyze(workers); got != want {
			t.Errorf("workers=%d JSON differs from sequential pairing", workers)
		}
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		// Workers=0 resolves to GOMAXPROCS, so this varies real parallelism.
		if got := analyze(0); got != want {
			t.Errorf("GOMAXPROCS=%d JSON differs from sequential pairing", procs)
		}
	}
}

// TestPairSitesInputOrderInvariant pins the exported pairing entry point:
// PairSites re-sorts its input into canonical order internally, so the
// order sites arrive in never shows in the result.
func TestPairSitesInputOrderInvariant(t *testing.T) {
	c := corpus.Generate(corpus.DefaultConfig(31))
	p := ofence.NewProject()
	p.AddSources(c.Sources())
	res := mustAnalyze(t, p, ofence.DefaultOptions())
	if len(res.Sites) == 0 {
		t.Fatal("corpus produced no sites")
	}

	render := func(pairings []*ofence.Pairing, unpaired, implicit []*access.Site) string {
		out := ""
		for _, pg := range pairings {
			out += pg.String() + "\n"
		}
		out += "unpaired:"
		for _, s := range unpaired {
			out += " " + s.ID()
		}
		out += "\nimplicit:"
		for _, s := range implicit {
			out += " " + s.ID()
		}
		return out
	}

	pairings, unpaired, implicit, _ := ofence.PairSites(context.Background(), res.Sites, ofence.DefaultOptions())
	want := render(pairings, unpaired, implicit)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		shuffled := make([]*access.Site, len(res.Sites))
		copy(shuffled, res.Sites)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		pg, up, ipc, _ := ofence.PairSites(context.Background(), shuffled, ofence.DefaultOptions())
		if got := render(pg, up, ipc); got != want {
			t.Fatalf("trial %d: shuffled input changed the pairing result:\n%s\nvs\n%s", trial, got, want)
		}
	}
}
