package ofence

import (
	"fmt"
	"sort"
	"strings"

	"ofence/internal/access"
)

// ExplainPairing renders a human-readable account of why a pairing was
// formed: each member barrier, its role, and the accesses to the common
// shared objects with their kinds, sides and statement distances. This is
// the §5.4 transparency property ("the patch documents which shared objects
// were used to pair the barriers") extended to whole pairings, so a kernel
// developer can audit an inferred concurrency relationship directly.
func ExplainPairing(pg *Pairing) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pairing of %d barriers (weight %d)\n", len(pg.Sites), pg.Weight)
	b.WriteString("shared objects: ")
	for i, o := range pg.Common {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	b.WriteString("\n")
	for _, s := range pg.Sites {
		fmt.Fprintf(&b, "  %s in %s at %s [%s]\n", s.Name, s.Fn.Name, s.Pos, s.Kind)
		writeAccessLines(&b, pg, s.Before, true)
		writeAccessLines(&b, pg, s.After, false)
	}
	return b.String()
}

func writeAccessLines(b *strings.Builder, pg *Pairing, list []*access.Access, before bool) {
	side := "after"
	if before {
		side = "before"
	}
	// One line per (object, kind), at the closest distance, ordered by
	// distance, object and kind.
	type key struct {
		o access.Object
		k access.Kind
	}
	best := map[key]int{}
	for _, a := range list {
		if !objectInCommon(pg, a.Object) {
			continue
		}
		kk := key{a.Object, a.Kind}
		if d, ok := best[kk]; !ok || a.Distance < d {
			best[kk] = a.Distance
		}
	}
	keys := make([]key, 0, len(best))
	for kk := range best {
		keys = append(keys, kk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if best[keys[i]] != best[keys[j]] {
			return best[keys[i]] < best[keys[j]]
		}
		if oi, oj := keys[i].o.String(), keys[j].o.String(); oi != oj {
			return oi < oj
		}
		return keys[i].k < keys[j].k
	})
	for _, kk := range keys {
		fmt.Fprintf(b, "    %-5s of %-30s %s barrier, distance %d\n",
			kk.k, kk.o, side, best[kk])
	}
}

func objectInCommon(pg *Pairing, o access.Object) bool {
	for _, c := range pg.Common {
		if c == o {
			return true
		}
	}
	return false
}

// ExplainResult renders every pairing plus the unpaired/implicit site
// summary — the full audit trail of one analysis.
func ExplainResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d barrier sites, %d pairings, %d unpaired, %d implicit-IPC\n\n",
		len(res.Sites), len(res.Pairings), len(res.Unpaired), len(res.ImplicitIPC))
	for i, pg := range res.Pairings {
		fmt.Fprintf(&b, "#%d ", i+1)
		b.WriteString(ExplainPairing(pg))
		b.WriteString("\n")
	}
	if len(res.ImplicitIPC) > 0 {
		b.WriteString("implicit-IPC writers (the wake-up call is the read barrier):\n")
		for _, s := range res.ImplicitIPC {
			fmt.Fprintf(&b, "  %s in %s at %s (wake-up %d statements after)\n",
				s.Name, s.Fn.Name, s.Pos, s.WakeUpAfter)
		}
		b.WriteString("\n")
	}
	if len(res.Unpaired) > 0 {
		b.WriteString("unpaired barriers (no partner sharing 2+ ordered objects):\n")
		for _, s := range res.Unpaired {
			fmt.Fprintf(&b, "  %s in %s at %s\n", s.Name, s.Fn.Name, s.Pos)
		}
	}
	return b.String()
}
