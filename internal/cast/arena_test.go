package cast

import "testing"

// TestArenaAllocZeroedAndDistinct checks that slab allocation hands out
// zeroed, distinct nodes across slab growth boundaries and accounts bytes.
func TestArenaAllocZeroedAndDistinct(t *testing.T) {
	a := new(Arena)
	seen := map[*Ident]bool{}
	for i := 0; i < 10000; i++ {
		n := a.NewIdent()
		if n.Name != "" || n.Position.Line != 0 {
			t.Fatalf("alloc %d not zeroed: %+v", i, *n)
		}
		if seen[n] {
			t.Fatalf("alloc %d returned a previously handed-out node", i)
		}
		seen[n] = true
		n.Name = "x" // dirty it; later allocs must still come back zeroed
	}
	if a.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d after 10000 allocs", a.Bytes())
	}
	for n := range seen {
		if n.Name != "x" {
			t.Fatalf("node clobbered after later allocations")
		}
	}
}
