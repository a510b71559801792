package ofence

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ofence/internal/access"
	"ofence/internal/sitegen"
)

// benchPairSites builds the kernel-scale synthetic corpus (~2000 barrier
// sites: protocol pairs buried in hot-object noise) in canonical order,
// with every site's memoized object map pre-warmed so the measurement is
// pairing work, not lazy memoization.
func benchPairSites(n int) []*access.Site {
	sites := sitegen.Generate(sitegen.DefaultConfig(n, 42))
	sortSites(sites)
	for _, s := range sites {
		s.Objects()
	}
	return sites
}

// BenchmarkPairKernelScale measures Algorithm 1 old-vs-new on the synthetic
// kernel-scale corpus. "legacy" is the pre-index pairer (map object sets,
// per-getPair set allocation); "indexed" is the interned/inverted-index
// engine pinned to one worker, isolating the single-threaded data-layer
// win; "parallel8" adds sharding at Workers=8/GOMAXPROCS=8.
// make bench-pairing runs these via TestWriteBenchPairingJSON and records
// the results in BENCH_pairing.json.
func BenchmarkPairKernelScale(b *testing.B) {
	sites := benchPairSites(2000)
	opts := DefaultOptions()

	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lp := newLegacyPairer(sites, opts)
			lp.run()
		}
	})
	b.Run("indexed", func(b *testing.B) {
		o := opts
		o.Workers = 1
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := newPairer(coldTable(sites, o), o)
			pr.run(context.Background())
		}
	})
	b.Run("parallel8", func(b *testing.B) {
		old := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(old)
		o := opts
		o.Workers = 8
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := newPairer(coldTable(sites, o), o)
			pr.run(context.Background())
		}
	})
}

// TestWriteBenchPairingJSON refreshes BENCH_pairing.json: it runs the
// BenchmarkPairKernelScale variants via testing.Benchmark and writes their
// results in the BENCH_*.json schema (benchmark/command/results/acceptance;
// docs_test.go lints the shape). Gated behind OFENCE_BENCH_PAIRING_OUT so
// plain `go test` stays fast; `make bench-pairing` sets it.
func TestWriteBenchPairingJSON(t *testing.T) {
	out := os.Getenv("OFENCE_BENCH_PAIRING_OUT")
	if out == "" {
		t.Skip("set OFENCE_BENCH_PAIRING_OUT to refresh BENCH_pairing.json")
	}
	sites := benchPairSites(2000)
	opts := DefaultOptions()

	// Sanity-gate the numbers: all variants must produce identical results.
	lp := newLegacyPairer(sites, opts)
	want := pairFingerprint(lp.run())
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		pr := newPairer(coldTable(sites, o), o)
		if got := pairFingerprint(pr.run(context.Background())); got != want {
			t.Fatalf("workers=%d diverges from legacy; refusing to record benchmark", workers)
		}
	}

	legacy := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lp := newLegacyPairer(sites, opts)
			lp.run()
		}
	})
	indexed := testing.Benchmark(func(b *testing.B) {
		o := opts
		o.Workers = 1
		for i := 0; i < b.N; i++ {
			pr := newPairer(coldTable(sites, o), o)
			pr.run(context.Background())
		}
	})
	parallel := testing.Benchmark(func(b *testing.B) {
		old := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(old)
		o := opts
		o.Workers = 8
		for i := 0; i < b.N; i++ {
			pr := newPairer(coldTable(sites, o), o)
			pr.run(context.Background())
		}
	})

	o := opts
	o.Workers = 8
	pr := newPairer(coldTable(sites, o), o)
	pr.run(context.Background())

	round1 := func(x float64) float64 { return float64(int(x*10+0.5)) / 10 }
	speedupIndexed := round1(float64(legacy.NsPerOp()) / float64(indexed.NsPerOp()))
	speedupParallel := round1(float64(legacy.NsPerOp()) / float64(parallel.NsPerOp()))

	entry := func(r testing.BenchmarkResult) map[string]any {
		return map[string]any{
			"ns_per_op":     r.NsPerOp(),
			"bytes_per_op":  r.AllocedBytesPerOp(),
			"allocs_per_op": r.AllocsPerOp(),
		}
	}
	parallelEntry := entry(parallel)
	parallelEntry["pair_shards"] = pr.stats.Shards
	parallelEntry["index_probes"] = pr.stats.IndexProbes
	parallelEntry["candidates_pruned_bound"] = pr.stats.PrunedBound

	doc := map[string]any{
		"benchmark":   "BenchmarkPairKernelScale",
		"description": "Synthetic kernel-scale corpus (~2000 barrier sites: writer/reader protocol pairs buried in hot-object noise; internal/sitegen). 'legacy' is the pre-PR pairer with map[Object]int object sets and a per-getPair set allocation; 'indexed' is the interned/inverted-index engine with the weight-bound cutoff, pinned to one worker; 'parallel8' adds sharded candidate search at Workers=8, GOMAXPROCS=8. All three produce byte-identical pairings (asserted before recording).",
		"command":     "go test -run '^$' -bench BenchmarkPairKernelScale -benchtime 3s ./internal/ofence/",
		"refresh":     "make bench-pairing",
		"environment": map[string]string{
			"cpu":  benchCPU(),
			"go":   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"date": time.Now().Format("2006-01-02"),
		},
		"results": map[string]any{
			"legacy":    entry(legacy),
			"indexed":   entry(indexed),
			"parallel8": parallelEntry,
		},
		"speedup_indexed":   speedupIndexed,
		"speedup_parallel8": speedupParallel,
		"acceptance":        "speedup_parallel8 >= 4x over the pre-PR pairer at GOMAXPROCS=8, with speedup_indexed >= 1.5x from single-threaded interning/indexing alone; byte-identical output asserted against the legacy oracle",
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("legacy %v, indexed %v (%.1fx), parallel8 %v (%.1fx) -> %s",
		legacy.NsPerOp(), indexed.NsPerOp(), speedupIndexed, parallel.NsPerOp(), speedupParallel, out)
	if speedupIndexed < 1.5 || speedupParallel < 4 {
		t.Errorf("acceptance not met: indexed %.1fx (want >= 1.5), parallel8 %.1fx (want >= 4)", speedupIndexed, speedupParallel)
	}
}

// benchCPU returns the host CPU model for the environment block.
func benchCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}
