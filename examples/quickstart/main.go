// Quickstart: analyze the paper's Listing 1 — the textbook lockless
// init-flag pattern — and print the pairing OFence infers from the shared
// objects (my_struct, y) and (my_struct, init).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ofence/internal/ofence"
)

const listing1 = `
struct my_struct { int init; int y; };

void reader(struct my_struct *a) {
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}

void writer(struct my_struct *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}
`

func main() {
	proj := ofence.NewProject()
	proj.AddSource("listing1.c", listing1)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Listing 1 (paper §2) ==")
	fmt.Printf("barrier sites: %d\n", len(res.Sites))
	for _, s := range res.Sites {
		fmt.Printf("  %s\n", s)
	}

	fmt.Printf("\npairings: %d\n", len(res.Pairings))
	for _, pg := range res.Pairings {
		fmt.Printf("  %s\n", pg)
		fmt.Println("  shared objects that paired the barriers:")
		for _, o := range pg.Common {
			fmt.Printf("    %s\n", o)
		}
	}

	ordering := 0
	for _, f := range res.Findings {
		if f.Kind != ofence.MissingOnce {
			ordering++
			fmt.Printf("finding: %s\n", f)
		}
	}
	if ordering == 0 {
		fmt.Println("\nno ordering deviations: the barriers are correctly used")
	}

	// The §7 extension still notes the unannotated concurrent accesses.
	fmt.Println("\nREAD_ONCE/WRITE_ONCE suggestions (§7 extension):")
	for _, f := range res.Findings {
		if f.Kind == ofence.MissingOnce {
			fmt.Printf("  %s: %s should use %s\n", f.Site.Fn.Name, f.Object, f.SuggestedBarrier)
		}
	}
}
