// unneeded demonstrates the paper's Patch 4: rq_qos_wake_function issues an
// smp_wmb immediately before wake_up_process, which already provides full
// barrier semantics (Table 2). OFence leaves the barrier unpaired because
// the wake-up call is the implicit read barrier, flags it as unneeded, and
// generates the removal patch.
//
// Run with: go run ./examples/unneeded
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ofence/internal/memmodel"
	"ofence/internal/ofence"
	"ofence/internal/patch"
)

const blkRqQos = `
struct task_struct { int pid; };
struct rq_qos_wait_data { int got_token; struct task_struct *task; };

static int rq_qos_wake_function(struct rq_qos_wait_data *data) {
	data->got_token = 1;
	smp_wmb();
	wake_up_process(data->task);
	return 1;
}
`

func main() {
	fmt.Println("== Patch 4: the unneeded barrier in blk-rq-qos ==")

	s := memmodel.Lookup("wake_up_process")
	fmt.Printf("\nTable 2 entry: wake_up_process: compiler barrier=%v, memory barrier=%v\n",
		s.CompilerBarrier, s.MemoryBarrier)

	proj := ofence.NewProject()
	proj.AddSource("block/blk-rq-qos.c", blkRqQos)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbarrier sites: %d, pairings: %d, implicit-IPC writers: %d\n",
		len(res.Sites), len(res.Pairings), len(res.ImplicitIPC))

	for _, f := range res.Findings {
		if f.Kind != ofence.UnneededBarrier {
			continue
		}
		fmt.Printf("\nfinding: %s\n", f)
		p, err := patch.Generate(f)
		if err != nil {
			fmt.Printf("BUG: patch generation failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("\ngenerated patch:")
		fmt.Println(p.String())
	}
}
