package access_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ofence/internal/access"
	"ofence/internal/sitegen"
)

// TestBuildSiteTableMatchesCold asserts that a table derived from a
// previous one is the table a cold build makes — the same interned objects
// under the same IDs and the same vectors for every site — whatever it
// carried over, that its stats say what that was, and that its diff maps
// every kept site to its previous index.
func TestBuildSiteTableMatchesCold(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := sitegen.DefaultConfig(300, seed)
		all := sitegen.Generate(cfg)
		regenerated := sitegen.Generate(cfg) // same objects, new site pointers
		n := len(all)
		prev, _ := access.BuildSiteTable(nil, all, nil, 2)
		cases := []struct {
			name       string
			sites      []*access.Site
			generic    []string
			reused     bool
			vectorized int
		}{
			{"same sites", all, nil, true, 0},
			{"new pointers", regenerated, nil, true, len(regenerated)},
			{"one site swapped", append(all[:n-1:n-1], regenerated[n-1]), nil, true, 1},
			{"sites dropped", all[:150], nil, false, 150},
			{"generic filter", all, []string{all[0].Before[0].Object.Struct}, true, len(all)},
		}
		for _, tc := range cases {
			label := fmt.Sprintf("seed=%d/%s", seed, tc.name)
			got, d := access.BuildSiteTable(prev, tc.sites, tc.generic, 3)
			want, _ := access.BuildSiteTable(nil, tc.sites, tc.generic, 1)
			if carried := tc.reused && tc.generic == nil; carried != (d != nil) {
				t.Errorf("%s: diff %v, want one exactly when vectors carry", label, d != nil)
			} else if carried {
				for i, j := range d.FromPrev {
					if (j < 0) != slices.Contains(d.Added, int32(i)) || j >= 0 && prev.Sites()[j] != tc.sites[i] {
						t.Fatalf("%s: site %d maps to previous index %d", label, i, j)
					}
				}
				if len(d.Added) != tc.vectorized {
					t.Errorf("%s: %d sites added, want %d", label, len(d.Added), tc.vectorized)
				}
			}
			if st := got.Stats(); st.InternerReused != tc.reused || st.Vectorized != tc.vectorized {
				t.Errorf("%s: stats %+v, want reused=%t vectorized=%d", label, st, tc.reused, tc.vectorized)
			}
			gi, wi := got.Interner(), want.Interner()
			if gi.Len() != wi.Len() {
				t.Fatalf("%s: %d objects, cold build has %d", label, gi.Len(), wi.Len())
			}
			for id := 0; id < wi.Len(); id++ {
				if gi.Object(uint32(id)) != wi.Object(uint32(id)) {
					t.Fatalf("%s: ID %d bound to %v, cold build binds %v", label, id, gi.Object(uint32(id)), wi.Object(uint32(id)))
				}
			}
			for i, s := range tc.sites {
				if j, ok := got.Index(s); !ok || !reflect.DeepEqual(got.Vecs(j), want.Vecs(i)) {
					t.Fatalf("%s: site %d vectors %+v, cold build has %+v", label, i, got.Vecs(j), want.Vecs(i))
				}
			}
		}
	}
}
