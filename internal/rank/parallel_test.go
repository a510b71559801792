package rank

import (
	"fmt"
	"testing"

	"ofence/internal/access"
	"ofence/internal/sitegen"
)

// TestBuildIndexParallelQuickcheck asserts the census built at any worker
// count is the census built at one — identical interned
// IDs, per-object signature counts and totals, and therefore identical
// Support answers for every (object, site) query — over randomized
// workloads at the satellite's worker grid.
func TestBuildIndexParallelQuickcheck(t *testing.T) {
	for _, seed := range []int64{1, 5, 42} {
		for _, n := range []int{0, 2, 50, 900} {
			sites := sitegen.Generate(sitegen.DefaultConfig(n, seed))
			seq := BuildIndexParallel(sites, 1)
			for _, workers := range []int{1, 3, 8} {
				par := BuildIndexParallel(sites, workers)
				label := fmt.Sprintf("seed=%d n=%d workers=%d", seed, n, workers)
				if seq.Objects() != par.Objects() {
					t.Fatalf("%s: Objects %d vs %d", label, seq.Objects(), par.Objects())
				}
				for id := 0; id < seq.Objects(); id++ {
					if seq.tbl.Interner().Object(uint32(id)) != par.tbl.Interner().Object(uint32(id)) {
						t.Fatalf("%s: ID %d interned differently", label, id)
					}
					sr, pr := seq.rows.At(id), par.rows.At(id)
					if sr.total != pr.total {
						t.Fatalf("%s: total[%d] = %d vs %d", label, id, sr.total, pr.total)
					}
					if sr.census != pr.census {
						t.Fatalf("%s: census[%d] = %v vs %v", label, id, sr.census, pr.census)
					}
				}
				// Support must agree for every object every site touches.
				for _, s := range sites {
					for o := range s.Objects() {
						if a, b := seq.Support(o, s), par.Support(o, s); a != b {
							t.Fatalf("%s: Support(%v) = %+v vs %+v", label, o, a, b)
						}
					}
				}
			}
		}
	}
}

// TestBuildIndexParallelDegenerate covers empty and single-site inputs,
// where the parallel path must fall back cleanly.
func TestBuildIndexParallelDegenerate(t *testing.T) {
	if x := BuildIndexParallel(nil, 8); x.Objects() != 0 {
		t.Errorf("nil sites: %d objects", x.Objects())
	}
	sites := sitegen.Generate(sitegen.DefaultConfig(2, 1))
	seq, par := BuildIndexParallel(sites[:1], 1), BuildIndexParallel(sites[:1], 8)
	if seq.Objects() != par.Objects() {
		t.Errorf("single site: %d vs %d objects", seq.Objects(), par.Objects())
	}
	o := access.Object{Struct: "a_proto_00000", Field: "data"}
	if a, b := seq.Support(o, sites[0]), par.Support(o, sites[0]); a != b {
		t.Errorf("single site Support: %+v vs %+v", a, b)
	}
}

// TestDeriveMatchesNewIndex drops and re-adds sites between site tables
// and checks that the census derived through each table diff equals the
// census built afresh, and that deriving leaves the source index as it
// was.
func TestDeriveMatchesNewIndex(t *testing.T) {
	sites := sitegen.Generate(sitegen.DefaultConfig(400, 3))
	access.SortSites(sites)
	same := func(label string, a, b *Index) {
		t.Helper()
		if a.Objects() != b.Objects() {
			t.Fatalf("%s: Objects %d vs %d", label, a.Objects(), b.Objects())
		}
		for id := range a.Objects() {
			if ar, br := a.rows.At(id), b.rows.At(id); *ar != *br {
				t.Fatalf("%s: row %d = %v vs %v", label, id, *ar, *br)
			}
		}
	}
	prevTbl, _ := access.BuildSiteTable(nil, sites, nil)
	prev := NewIndex(prevTbl)
	derived := 0
	for step := 1; step <= 40; step++ {
		// Every step-th site is dropped; on odd steps the full set returns.
		cur := sites
		if step%2 == 0 {
			cur = nil
			for i, s := range sites {
				if i%step != 0 {
					cur = append(cur, s)
				}
			}
		}
		tbl, d := access.BuildSiteTable(prevTbl, cur, nil)
		fresh := NewIndex(tbl)
		if d != nil {
			before := NewIndex(prevTbl)
			x := prev.Derive(tbl, d)
			same(fmt.Sprintf("step %d derived", step), x, fresh)
			same(fmt.Sprintf("step %d source", step), prev, before)
			if got, want := x.ChangedRows(prev), fresh.ChangedRows(before); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: ChangedRows %v, want %v", step, got, want)
			}
			fresh = x
			derived++
		}
		prevTbl, prev = tbl, fresh
	}
	if derived == 0 {
		t.Fatal("no table kept its interner: nothing derived")
	}
}
