// seqcount demonstrates the multi-barrier pairing of Figure 5 / Listing 3:
// the ARP subsystem's get_counters / do_add_counters functions rely on four
// barriers (via the seqcount API). OFence pairs all four into one pairing
// and checks ordering per duo — the first write barrier against the second
// read barrier and vice versa — so the correct protocol produces no
// findings.
//
// Run with: go run ./examples/seqcount
package main

import (
	"context"
	"fmt"
	"log"

	"ofence/internal/litmus"
	"ofence/internal/ofence"
)

const arp = `
struct xt_counters { u64 bcnt; u64 pcnt; };

static void get_counters(struct xt_counters *tmp, seqcount_t *s) {
	unsigned int v;
	u64 bcnt, pcnt;
	do {
		v = read_seqcount_begin(s);
		bcnt = tmp->bcnt;
		pcnt = tmp->pcnt;
	} while (read_seqcount_retry(s, v));
	use(bcnt, pcnt);
}

static void do_add_counters(struct xt_counters *t, seqcount_t *s) {
	write_seqcount_begin(s);
	t->bcnt += 1;
	t->pcnt += 2;
	write_seqcount_end(s);
}
`

func main() {
	fmt.Println("== Listing 3: the ARP seqcount pattern (four barriers, one pairing) ==")

	proj := ofence.NewProject()
	proj.AddSource("net/ipv4/netfilter/arp_tables.c", arp)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbarrier sites: %d\n", len(res.Sites))
	for _, s := range res.Sites {
		fmt.Printf("  %s\n", s)
	}

	fmt.Printf("\npairings: %d\n", len(res.Pairings))
	for _, pg := range res.Pairings {
		fmt.Printf("  %s\n", pg)
		fmt.Printf("  members: %d barriers\n", len(pg.Sites))
		for _, o := range pg.Common {
			fmt.Printf("    shared %s\n", o)
		}
	}

	deviations := 0
	for _, f := range res.Findings {
		if f.Kind != ofence.MissingOnce {
			deviations++
			fmt.Printf("finding: %s\n", f)
		}
	}
	fmt.Printf("\nordering deviations: %d (the per-duo rule of §5.3 prevents false positives here)\n", deviations)

	// Show why the protocol is safe: the litmus simulator confirms a stable
	// even sequence implies fresh data.
	fmt.Println("\n== litmus validation of the seqcount protocol ==")
	withFences := litmus.Run(litmus.SeqcountRead(), litmus.Weak)
	fmt.Printf("stale data behind a stable sequence (with barriers):   %v\n", withFences.Has(litmus.BadSeqcount))
	noFences := &litmus.Program{
		Name: "seqcount without fences",
		Threads: []litmus.Thread{
			{litmus.Store("seq", 1), litmus.Store("data", 1), litmus.Store("seq", 2)},
			{litmus.Load("r_seq1", "seq"), litmus.Load("r_data", "data"), litmus.Load("r_seq2", "seq")},
		},
	}
	broken := litmus.Run(noFences, litmus.Weak)
	fmt.Printf("stale data behind a stable sequence (barriers removed): %v\n", broken.Has(litmus.BadSeqcount))
}
