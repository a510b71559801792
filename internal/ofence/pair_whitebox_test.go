package ofence

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ofence/internal/access"
	"ofence/internal/cast"
	"ofence/internal/ctoken"
	"ofence/internal/memmodel"
	"ofence/internal/sitegen"
)

// pairFingerprint renders a pairing result into a stable string covering
// everything the JSON view serializes: site order, common objects, weights,
// unpaired and implicit-IPC site lists.
func pairFingerprint(pairings []*Pairing, unpaired, implicit []*access.Site) string {
	var sb strings.Builder
	for _, pg := range pairings {
		fmt.Fprintf(&sb, "pairing w=%d:", pg.Weight)
		for _, s := range pg.Sites {
			sb.WriteString(" " + s.ID())
		}
		sb.WriteString(" common:")
		for _, o := range pg.Common {
			sb.WriteString(" " + o.String())
		}
		sb.WriteString("\n")
	}
	sb.WriteString("unpaired:")
	for _, s := range unpaired {
		sb.WriteString(" " + s.ID())
	}
	sb.WriteString("\nimplicit:")
	for _, s := range implicit {
		sb.WriteString(" " + s.ID())
	}
	return sb.String()
}

// randomPairSites builds adversarially unstructured sites: random kinds,
// random objects from a small universe (lots of weight ties), random
// window sides and distances, occasional wake-up calls.
func randomPairSites(rng *rand.Rand, n int) []*access.Site {
	sites := make([]*access.Site, n)
	for i := range sites {
		pos := ctoken.Position{File: fmt.Sprintf("r_%02d.c", i/8), Line: 5 + (i%8)*7, Col: 1}
		kind := []memmodel.BarrierKind{memmodel.WriteBarrier, memmodel.ReadBarrier, memmodel.FullBarrier}[rng.Intn(3)]
		s := &access.Site{
			File: pos.File, Fn: &cast.FuncDecl{Name: fmt.Sprintf("f%d", i), Position: pos},
			Name: "smp_mb", Kind: kind, Pos: pos,
			WakeUpAfter: -1, NextBarrierAfter: -1,
		}
		if rng.Intn(8) == 0 {
			s.WakeUpAfter = rng.Intn(6)
		}
		for a := rng.Intn(10); a > 0; a-- {
			acc := &access.Access{
				Object:   access.Object{Struct: fmt.Sprintf("s%d", rng.Intn(4)), Field: fmt.Sprintf("f%d", rng.Intn(5))},
				Kind:     access.Load,
				Distance: rng.Intn(6) + 1, // small range: frequent ties
			}
			if rng.Intn(2) == 0 {
				acc.Before = true
				s.Before = append(s.Before, acc)
			} else {
				s.After = append(s.After, acc)
			}
		}
		sites[i] = s
	}
	return sites
}

// TestPairerMatchesLegacyOracle runs the interned/indexed engine
// differentially against the preserved pre-index pairer over structured
// (sitegen) and adversarial (random) corpora at several worker counts:
// every run must reproduce the oracle fingerprint exactly.
func TestPairerMatchesLegacyOracle(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name  string
		sites []*access.Site
		min   int
	}{}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, struct {
			name  string
			sites []*access.Site
			min   int
		}{fmt.Sprintf("sitegen/seed%d", seed), sitegen.Generate(sitegen.DefaultConfig(300, seed)), 2})
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sites := randomPairSites(rng, rng.Intn(60)+4)
		min := 2
		if seed%2 == 1 {
			min = 1 // exercise the getSingle ablation path too
		}
		cases = append(cases, struct {
			name  string
			sites []*access.Site
			min   int
		}{fmt.Sprintf("random/seed%d/min%d", seed, min), sites, min})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			access.SortSites(tc.sites)
			opts := DefaultOptions()
			opts.MinSharedObjects = tc.min

			lp := newLegacyPairer(tc.sites, opts)
			want := pairFingerprint(lp.run())

			for _, workers := range []int{1, 3, 8} {
				o := opts
				o.Workers = workers
				pr := coldPairer(tc.sites, o)
				got := pairFingerprint(pr.run(ctx))
				if got != want {
					t.Fatalf("workers=%d diverges from legacy oracle:\n got:\n%s\nwant:\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestPairerTieBreakBySiteOrder is the regression test for deterministic
// tie-breaking: two readers tie exactly on weight for the same writer, and
// the winner must be the site earliest in canonical order — independent of
// the order the sites are presented in.
func TestPairerTieBreakBySiteOrder(t *testing.T) {
	mk := func(file string, kind memmodel.BarrierKind, name string) *access.Site {
		pos := ctoken.Position{File: file, Line: 10, Col: 1}
		return &access.Site{
			File: file, Fn: &cast.FuncDecl{Name: name, Position: pos},
			Name: name, Kind: kind, Pos: pos,
			WakeUpAfter: -1, NextBarrierAfter: -1,
		}
	}
	data := access.Object{Struct: "tie", Field: "data"}
	flag := access.Object{Struct: "tie", Field: "flag"}
	w := mk("a.c", memmodel.WriteBarrier, "smp_wmb")
	w.Before = append(w.Before, &access.Access{Object: data, Kind: access.Store, Distance: 1, Before: true})
	w.After = append(w.After, &access.Access{Object: flag, Kind: access.Store, Distance: 1})
	reader := func(file string) *access.Site {
		r := mk(file, memmodel.ReadBarrier, "smp_rmb")
		r.Before = append(r.Before, &access.Access{Object: flag, Kind: access.Load, Distance: 2, Before: true})
		r.After = append(r.After, &access.Access{Object: data, Kind: access.Load, Distance: 3})
		return r
	}
	r1 := reader("b.c") // canonical order: b.c before c.c — r1 must win
	r2 := reader("c.c")

	perms := [][]*access.Site{
		{w, r1, r2},
		{r2, r1, w},
		{r1, w, r2},
	}
	for i, perm := range perms {
		pairings, _, _, _ := PairSites(context.Background(), perm, DefaultOptions())
		if len(pairings) != 1 {
			t.Fatalf("perm %d: got %d pairings, want 1", i, len(pairings))
		}
		pg := pairings[0]
		if pg.Sites[0] != w || pg.Sites[1] != r1 {
			t.Fatalf("perm %d: tie broke to %s, want %s (earliest site)", i, pg.Sites[1].ID(), r1.ID())
		}
	}
}

// TestPairStatsCounters pins that the index and the bound cutoff actually
// engage on a kernel-shaped corpus — the pairing engine's speed over the
// pre-index pairer depends on both.
func TestPairStatsCounters(t *testing.T) {
	sites := sitegen.Generate(sitegen.DefaultConfig(400, 11))
	_, _, _, stats := PairSites(context.Background(), sites, DefaultOptions())
	if stats.IndexProbes == 0 {
		t.Errorf("IndexProbes = 0, want > 0")
	}
	if stats.PrunedBound == 0 {
		t.Errorf("PrunedBound = 0, want > 0: the bound cutoff never engaged")
	}
}

// coldPairer builds the pairing engine over a fresh site table of sites,
// deriving from the empty record, as a cold analysis does.
func coldPairer(sites []*access.Site, opts Options) *pairer {
	tbl, _ := access.BuildSiteTable(nil, sites, opts.GenericStructs)
	return newPairer(tbl, opts, emptyRun, access.DiffFromEmpty(len(tbl.Sites())))
}

// TestSortSitesTotalOrder sorts two permutations of one site set in which
// a macro's smp_wmb and smp_mb share a source position, and a header's
// smp_wmb has the same line and column. The canonical order must break
// the ties by barrier name and then by the position's file, so both sort
// alike: pairing's tie-break and the incremental pairing record rely on a
// total order.
func TestSortSitesTotalOrder(t *testing.T) {
	mk := func(file, name string, line, col int) *access.Site {
		pos := ctoken.Position{File: file, Line: line, Col: col}
		return &access.Site{
			File: "m.c", Fn: &cast.FuncDecl{Name: "f", Position: pos},
			Name: name, Kind: memmodel.FullBarrier, Pos: pos,
			WakeUpAfter: -1, NextBarrierAfter: -1,
		}
	}
	wmb, mb, hdr := mk("m.c", "smp_wmb", 4, 23), mk("m.c", "smp_mb", 4, 23), mk("h.h", "smp_wmb", 4, 23)
	before, after := mk("m.c", "smp_rmb", 2, 5), mk("m.c", "smp_rmb", 9, 5)
	order := func(sites ...*access.Site) string {
		access.SortSites(sites)
		var ids []string
		for _, s := range sites {
			ids = append(ids, s.ID())
		}
		return strings.Join(ids, " ")
	}
	a := order(before, wmb, mb, hdr, after)
	if b := order(after, hdr, mb, before, wmb); a != b {
		t.Fatalf("the order depends on the input order:\n%s\n%s", a, b)
	}
	if want := "m.c:2:5/smp_rmb m.c:4:23/smp_mb h.h:4:23/smp_wmb m.c:4:23/smp_wmb m.c:9:5/smp_rmb"; a != want {
		t.Errorf("order %s, want %s", a, want)
	}
}
