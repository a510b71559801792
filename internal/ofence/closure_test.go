package ofence

import (
	"fmt"
	"math/rand"
	"testing"
)

// closureUnits builds synthetic FileUnits whose preHash is derived from the
// name and an edit counter — content identity per file.
func closureUnits(names []string, bump map[string]int) []*FileUnit {
	out := make([]*FileUnit, 0, len(names))
	for _, n := range names {
		out = append(out, &FileUnit{
			Name: n,
			art:  &artifacts{preHash: fmt.Sprintf("pre(%s)#%d", n, bump[n])},
		})
	}
	return out
}

// reaches reports whether to is reachable from from in deps (every file
// reaches itself), by depth-first search.
func reaches(deps map[string][]string, from, to string) bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == to {
			return true
		}
		for _, next := range deps[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// checkClosureKeys asserts the invalidation property of closureKeys over
// one dependency graph: editing any one file changes a file's key exactly
// when the edited file is reachable from it.
func checkClosureKeys(t *testing.T, names []string, deps map[string][]string) {
	t.Helper()
	base := closureKeys(deps, closureUnits(names, nil))
	for _, edited := range names {
		keys := closureKeys(deps, closureUnits(names, map[string]int{edited: 1}))
		for _, n := range names {
			changed := keys[n] != base[n]
			if want := reaches(deps, n, edited); changed != want {
				t.Errorf("deps %v: edit %s: %s key changed %t, reachable %t",
					deps, edited, n, changed, want)
			}
		}
	}
}

// TestClosureKeyTracksReachability checks the closure keys on a hand-built
// graph — a cycle with a dependency hanging off it, a chain with a
// dangling dependency on a non-project file, an isolated file — and on
// random graphs with self-loops, cycles and dangling edges.
func TestClosureKeyTracksReachability(t *testing.T) {
	checkClosureKeys(t, []string{"a.c", "b.c", "c.c", "d.c", "e.c", "f.c", "g.c"},
		map[string][]string{
			"a.c": {"b.c"},
			"b.c": {"c.c"},
			"c.c": {"a.c", "d.c"},
			"e.c": {"f.c", "x.c"},
		})

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(10)
		names := make([]string, n)
		for j := range names {
			names[j] = fmt.Sprintf("f%d.c", j)
		}
		deps := map[string][]string{}
		for _, from := range names {
			for k := rng.Intn(4); k > 0; k-- {
				// One index past the end names a file outside the project.
				deps[from] = append(deps[from], fmt.Sprintf("f%d.c", rng.Intn(n+1)))
			}
		}
		checkClosureKeys(t, names, deps)
	}
}
