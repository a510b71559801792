package rank

import (
	"fmt"
	"math/rand"
	"testing"

	"ofence/internal/access"
)

// mkSite builds a synthetic barrier site touching the given objects. Each
// spec is (object, kind, before-side); distances are positional.
type accSpec struct {
	obj    access.Object
	kind   access.Kind
	before bool
}

func mkSite(name string, specs []accSpec) *access.Site {
	s := &access.Site{Name: name, WakeUpAfter: -1, NextBarrierAfter: -1}
	for i, sp := range specs {
		a := &access.Access{Object: sp.obj, Kind: sp.kind, Distance: i + 1, Before: sp.before}
		if sp.before {
			s.Before = append(s.Before, a)
		} else {
			s.After = append(s.After, a)
		}
	}
	return s
}

// genSites builds a deterministic pseudo-random population of sites over a
// small object universe, so censuses have collisions, majorities and
// single-site objects.
func genSites(rng *rand.Rand, n int) []*access.Site {
	objs := []access.Object{
		{Struct: "s0", Field: "flag"},
		{Struct: "s0", Field: "pay"},
		{Struct: "s1", Field: "a"},
		{Struct: "s1", Field: "b"},
		{Struct: "s2", Field: "only"},
	}
	sites := make([]*access.Site, 0, n)
	for i := 0; i < n; i++ {
		var specs []accSpec
		for _, o := range objs {
			if rng.Intn(3) == 0 {
				continue // this site does not touch o
			}
			specs = append(specs, accSpec{
				obj:    o,
				kind:   access.Kind(rng.Intn(2)),
				before: rng.Intn(2) == 0,
			})
			if rng.Intn(4) == 0 { // sometimes both sides
				specs = append(specs, accSpec{obj: o, kind: access.Kind(rng.Intn(2)), before: rng.Intn(2) == 1})
			}
		}
		sites = append(sites, mkSite(fmt.Sprintf("site%d", i), specs))
	}
	return sites
}

// TestSupportPermutationInvariance is the quickcheck property the census
// doc promises: the census depends only on the SET of sites, so Support for
// every (object, site) query must be identical under any permutation of the
// input order.
func TestSupportPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sites := genSites(rng, 40)
	objs := []access.Object{
		{Struct: "s0", Field: "flag"}, {Struct: "s0", Field: "pay"},
		{Struct: "s1", Field: "a"}, {Struct: "s1", Field: "b"},
		{Struct: "s2", Field: "only"},
	}
	base := BuildIndexParallel(sites, 1)
	want := map[string]Support{}
	for _, o := range objs {
		for i, s := range sites {
			want[fmt.Sprintf("%s/%d", o, i)] = base.Support(o, s)
		}
	}
	for trial := 0; trial < 20; trial++ {
		perm := append([]*access.Site(nil), sites...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		x := BuildIndexParallel(perm, 1)
		for _, o := range objs {
			for i, s := range sites {
				got := x.Support(o, s)
				if got != want[fmt.Sprintf("%s/%d", o, i)] {
					t.Fatalf("trial %d: Support(%s, site%d) = %+v under permutation, want %+v",
						trial, o, i, got, want[fmt.Sprintf("%s/%d", o, i)])
				}
			}
		}
	}
}

// TestSingleSiteObjectNoMajority pins that an object touched by exactly one
// site can never be counted as having a majority protocol: with the queried
// site's own vote subtracted there are no others, no majority, and no
// deviation — the neutral outlier shape.
func TestSingleSiteObjectNoMajority(t *testing.T) {
	lone := access.Object{Struct: "lonely", Field: "f"}
	shared := access.Object{Struct: "pop", Field: "g"}
	sites := []*access.Site{
		mkSite("s0", []accSpec{{obj: lone, kind: access.Store, before: true}, {obj: shared, kind: access.Load, before: true}}),
		mkSite("s1", []accSpec{{obj: shared, kind: access.Load, before: true}}),
		mkSite("s2", []accSpec{{obj: shared, kind: access.Load, before: true}}),
	}
	x := BuildIndexParallel(sites, 1)
	sp := x.Support(lone, sites[0])
	if sp.Others != 0 || sp.Majority != 0 || sp.Deviates {
		t.Errorf("single-site object: Support = %+v, want Others=0 Majority=0 Deviates=false", sp)
	}
	if sp.Sig == 0 {
		t.Errorf("queried site touches the object; its own signature must be recorded, got %+v", sp)
	}
	// Queried from a site that does NOT touch it, the lone vote is an
	// "other" — but one site is still below the two-other evidence floor.
	sp = x.Support(lone, sites[1])
	if sp.Others != 1 || sp.Sig != 0 {
		t.Errorf("from a non-touching site: Support = %+v, want Others=1 Sig=0", sp)
	}
	if got := outlierScore(sp); got != 0.5 {
		t.Errorf("one other site must stay neutral, outlierScore = %v", got)
	}
}

// TestInternerIDStability pins the census's interner contract: within one
// index every (struct, field) object resolves to one stable ID regardless of
// how many sites mention it or how often it is queried, and ObjUsages
// reports each object exactly once in ascending-ID order.
func TestInternerIDStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sites := genSites(rng, 30)
	in := access.InternSites(sites)
	seen := map[access.Object]uint32{}
	for _, s := range sites {
		for o := range s.Objects() {
			id, ok := in.ID(o)
			if !ok {
				t.Fatalf("object %s of an interned site has no ID", o)
			}
			if prev, dup := seen[o]; dup && prev != id {
				t.Fatalf("object %s resolved to two IDs: %d then %d", o, prev, id)
			}
			seen[o] = id
			again, _ := in.ID(o)
			if again != id {
				t.Fatalf("object %s: repeated lookup changed ID %d -> %d", o, id, again)
			}
		}
	}
	for _, s := range sites {
		us := in.ObjUsages(s)
		ids := map[uint32]bool{}
		for i, u := range us {
			if i > 0 && us[i-1].ID >= u.ID {
				t.Fatalf("ObjUsages not in strictly ascending ID order: %v", us)
			}
			if ids[u.ID] {
				t.Fatalf("ObjUsages reports ID %d twice: %v", u.ID, us)
			}
			ids[u.ID] = true
			if u.Bits == 0 {
				t.Fatalf("ObjUsages emitted an empty signature: %v", us)
			}
		}
	}
}

// TestCombineBounds sanity-checks the scorer's range and the documented
// channel directions on a few synthetic evidence points.
func TestCombineBounds(t *testing.T) {
	cases := []Evidence{
		{},
		{Outlier: Support{Others: 10, Majority: 9, Sig: 2, MajoritySig: 1, Deviates: true},
			HasPairing: true, Weight: 1, RunnerUp: -1, Richness: 12},
		{Outlier: Support{Others: 9, Majority: 2, Sig: 1, MajoritySig: 4},
			HasPairing: true, Weight: 50, RunnerUp: 55, Richness: 1, Inlined: true, InferredSem: true},
	}
	for i, ev := range cases {
		c := Combine(ev)
		if c < 0 || c > 1 {
			t.Errorf("case %d: Combine out of range: %v", i, c)
		}
	}
	strong := Combine(cases[1])
	weak := Combine(cases[2])
	if strong <= weak {
		t.Errorf("strong evidence (%v) must outrank weak evidence (%v)", strong, weak)
	}
	if weak >= DefaultThreshold {
		t.Errorf("chaotic+inferred+inlined evidence scores %v, above the default gate %v", weak, DefaultThreshold)
	}
	if strong < DefaultThreshold {
		t.Errorf("deviant-outlier evidence scores %v, below the default gate %v", strong, DefaultThreshold)
	}
}
