package rank

import (
	"fmt"
	"testing"

	"ofence/internal/access"
	"ofence/internal/sitegen"
)

// TestBuildIndexParallelQuickcheck asserts the census built over a
// sharded site table is the census built on one worker — identical interned
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
					if seq.total[id] != par.total[id] {
						t.Fatalf("%s: total[%d] = %d vs %d", label, id, seq.total[id], par.total[id])
					}
					if sm, pm := seq.census[id], par.census[id]; sm != pm {
						t.Fatalf("%s: census[%d] = %v vs %v", label, id, sm, pm)
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
