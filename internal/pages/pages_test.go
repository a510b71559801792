package pages

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// iota returns an array of n entries, entry i holding i.
func iota(n int) Array[int] {
	w := Derive(nil, n, nil, func(i int) int { return i })
	return w.Array()
}

// entries returns a's first n entries as a flat slice.
func entries(a Array[int], n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = *a.At(i)
	}
	return out
}

// TestAt reads every entry of arrays that end before, on and just past a
// page boundary.
func TestAt(t *testing.T) {
	for _, n := range []int{0, 1, Len - 1, Len, Len + 1} {
		a := iota(n)
		if len(a) != NumPages(n) {
			t.Fatalf("n=%d: %d pages, want %d", n, len(a), NumPages(n))
		}
		for i := range n {
			if got := *a.At(i); got != i {
				t.Fatalf("n=%d: entry %d = %d", n, i, got)
			}
			if a.At(i) != &a[i/Len][i%Len] {
				t.Fatalf("n=%d: entry %d is not on page %d at %d", n, i, i/Len, i%Len)
			}
		}
	}
}

// TestWriterCopiesOnce writes entries of an array through a writer and
// checks that each written page of the source is copied once, on its first
// write, that pages past the source are added, that every other page stays
// the source's, and that the source's entries never change.
func TestWriterCopiesOnce(t *testing.T) {
	const n = 3*Len + 5
	cases := []struct {
		name   string
		writes []int // entries to write, in order
		copied []int // source pages the writer must have copied
		pages  int   // the array's pages after the writes
	}{
		{"none", nil, nil, 4},
		{"one entry", []int{Len + 3}, []int{1}, 4},
		{"one page twice", []int{Len, 2*Len - 1, Len + 7}, []int{1}, 4},
		{"two pages", []int{0, 3*Len + 4, 1}, []int{0, 3}, 4},
		{"past the end", []int{5*Len + 2}, nil, 6},
	}
	for _, tc := range cases {
		for _, mut := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mut=%t", tc.name, mut), func(t *testing.T) {
				src := iota(n)
				want := entries(src, n)
				srcPages := slices.Clone(src)
				w := NewWriter(src)
				var first []*[Len]int // each written page, as first written
				for _, i := range tc.writes {
					if mut {
						*w.Mut(i) = -i - 1
					} else {
						w.Set(i, -i-1)
					}
					p := i / Len
					for len(first) <= p {
						first = append(first, nil)
					}
					if first[p] == nil {
						first[p] = w.Array()[p]
					} else if w.Array()[p] != first[p] {
						t.Fatalf("page %d copied again by the write of %d", p, i)
					}
					if *w.At(i) != -i-1 {
						t.Fatalf("entry %d = %d after its write", i, *w.At(i))
					}
				}
				got := w.Array()
				if len(got) != tc.pages {
					t.Fatalf("%d pages, want %d", len(got), tc.pages)
				}
				for p := range src {
					if shared := got[p] == src[p]; shared == slices.Contains(tc.copied, p) {
						t.Errorf("page %d shared = %t", p, shared)
					}
				}
				if !slices.Equal(src, srcPages) || !slices.Equal(entries(src, n), want) {
					t.Fatal("the writer changed its source")
				}
			})
		}
	}
}

// TestEqual pages a flat slice against a source array and checks that
// exactly the pages whose entries equal the source's are shared.
func TestEqual(t *testing.T) {
	const n = 3*Len + 5
	cases := []struct {
		name   string
		edit   func([]int) []int
		shared []int
	}{
		{"unchanged", func(v []int) []int { return v }, []int{0, 1, 2, 3}},
		{"one entry", func(v []int) []int { v[Len+3] = -1; return v }, []int{0, 2, 3}},
		{"short last page", func(v []int) []int { v[n-1] = -1; return v }, []int{0, 1, 2}},
		{"shorter", func(v []int) []int { return v[:2*Len+1] }, []int{0, 1, 2}},
		{"longer", func(v []int) []int { return append(v, -1, -2) }, []int{0, 1, 2}},
		{"longer by pages", func(v []int) []int { return append(v[:3*Len], make([]int, 3*Len)...) }, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := iota(n)
			vals := tc.edit(entries(src, n))
			got := Equal(src, vals)
			if len(got) != NumPages(len(vals)) {
				t.Fatalf("%d pages, want %d", len(got), NumPages(len(vals)))
			}
			for p := range got {
				shared := p < len(src) && got[p] == src[p]
				if want := slices.Contains(tc.shared, p); shared != want {
					t.Errorf("page %d shared = %t, want %t", p, shared, want)
				}
			}
			if !slices.Equal(entries(got, len(vals)), vals) {
				t.Fatal("entries differ from vals")
			}
			if !slices.Equal(entries(src, n), entries(iota(n), n)) {
				t.Fatal("Equal changed its source")
			}
		})
	}
}

// TestDerive derives arrays from a source and checks that exactly the pages
// keeps names are shared, that keeps sees each page's index range, that
// the others hold at's entries, and that the derived writer copies a kept
// page on its first write but writes a page it filled in place.
func TestDerive(t *testing.T) {
	const n = 3*Len + 5
	cases := []struct {
		name string
		n    int   // entries derived
		kept []int // source pages keeps reports true for
	}{
		{"all kept", n, []int{0, 1, 2, 3}},
		{"none kept", n, nil},
		{"some kept", n, []int{0, 2}},
		{"shorter", 2*Len + 1, []int{1, 2}},
		{"longer", 5 * Len, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := iota(n)
			var ranges [][2]int
			keeps := func(lo, hi int) bool {
				ranges = append(ranges, [2]int{lo, hi})
				return slices.Contains(tc.kept, lo/Len)
			}
			w := Derive(src, tc.n, keeps, func(i int) int { return -i - 1 })
			got := w.Array()
			if len(got) != NumPages(tc.n) {
				t.Fatalf("%d pages, want %d", len(got), NumPages(tc.n))
			}
			for p := range min(len(got), len(src)) {
				lo := p * Len
				if want := [2]int{lo, min(lo+Len, tc.n)}; !slices.Contains(ranges, want) {
					t.Errorf("keeps not asked about page %d's range %v (asked %v)", p, want, ranges)
				}
			}
			for i := range tc.n {
				p := i / Len
				shared := p < len(src) && got[p] == src[p]
				if shared != slices.Contains(tc.kept, p) {
					t.Fatalf("page %d shared = %t", p, shared)
				}
				want := -i - 1
				if shared {
					want = i
				}
				if *got.At(i) != want {
					t.Fatalf("entry %d = %d, want %d", i, *got.At(i), want)
				}
			}
			for p, pg := range got {
				w.Set(p*Len, 7)
				if kept := slices.Contains(tc.kept, p); (w.Array()[p] == pg) == kept {
					t.Errorf("page %d (kept %t) after a write: copied = %t", p, kept, w.Array()[p] != pg)
				}
			}
			if !slices.Equal(entries(src, n), entries(iota(n), n)) {
				t.Fatal("Derive changed its source")
			}
		})
	}
}

// TestWritersConcurrently derives two writers from one published array and
// writes through both at once, as two runs deriving from one record do.
// Under -race it checks that a writer never writes a page it shares.
func TestWritersConcurrently(t *testing.T) {
	const n = 4*Len + 9
	src := iota(n)
	var wg sync.WaitGroup
	got := make([]Array[int], 2)
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := Derive(src, n, func(lo, hi int) bool { return lo/Len != k }, func(i int) int { return *src.At(i) })
			for i := k; i < n; i += 3 {
				w.Set(i, 1000*(k+1)+i)
				_ = *w.At(n - 1 - i)
			}
			got[k] = w.Array()
		}()
	}
	wg.Wait()
	for k, a := range got {
		for i := range n {
			want := i
			if (i-k)%3 == 0 && i >= k {
				want = 1000*(k+1) + i
			}
			if *a.At(i) != want {
				t.Fatalf("writer %d: entry %d = %d, want %d", k, i, *a.At(i), want)
			}
		}
	}
	if !slices.Equal(entries(src, n), entries(iota(n), n)) {
		t.Fatal("the writers changed their source")
	}
}
