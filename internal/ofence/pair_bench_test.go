package ofence

import (
	"context"
	"testing"

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
// engine, site table build included.
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
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := newPairer(coldTable(sites, opts), opts)
			pr.run(context.Background())
		}
	})
}
