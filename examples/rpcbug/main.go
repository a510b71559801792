// rpcbug walks through the paper's Patch 1 end-to-end: the RPC subsystem's
// misplaced memory access in call_decode is detected, a patch is generated,
// and the litmus simulator demonstrates that the bug is real — the bad state
// (flag observed set, payload stale) is observable before the fix and
// unobservable after it.
//
// Run with: go run ./examples/rpcbug
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ofence/internal/litmus"
	"ofence/internal/ofence"
	"ofence/internal/patch"
)

const buggy = `
struct xdr_buf { unsigned int len; };
struct rpc_rqst {
	struct xdr_buf rq_private_buf;
	struct xdr_buf rq_rcv_buf;
	unsigned int rq_reply_bytes_recd;
};

void xprt_complete_rqst(struct rpc_rqst *req, int copied) {
	req->rq_private_buf.len = copied;
	smp_wmb();
	req->rq_reply_bytes_recd = copied;
}

static void call_decode(struct rpc_rqst *req) {
	smp_rmb();
	if (!req->rq_reply_bytes_recd)
		goto out;
	req->rq_rcv_buf.len = req->rq_private_buf.len;
out:
	return;
}
`

func main() {
	fmt.Println("== Patch 1: sunrpc's misplaced read (merged in Linux 5.12) ==")

	proj := ofence.NewProject()
	proj.AddSource("net/sunrpc/xprt.c", buggy)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\npairings: %d\n", len(res.Pairings))
	for _, pg := range res.Pairings {
		fmt.Printf("  %s\n", pg)
	}

	var finding *ofence.Finding
	for _, f := range res.Findings {
		if f.Kind == ofence.MisplacedAccess {
			finding = f
			fmt.Printf("\nfinding: %s\n", f)
		}
	}
	if finding == nil {
		fmt.Println("BUG: misplaced access not detected")
		os.Exit(1)
	}

	p, err := patch.Generate(finding)
	if err != nil {
		fmt.Printf("BUG: patch generation failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\ngenerated patch:")
	fmt.Println(p.String())

	// Demonstrate the bug with the weak-memory simulator. Before the fix,
	// the reader's flag check happens after the barrier, so the data load
	// is unordered with it: the kernel could read an uninitialized length.
	fmt.Println("== litmus validation ==")
	before := &litmus.Program{
		Name: "call_decode (buggy)",
		Threads: []litmus.Thread{
			{litmus.Store("len", 1), litmus.Fence(litmus.FenceWrite), litmus.Store("recd", 1)},
			// Buggy reader: fence first, then both loads unordered by it.
			{litmus.Fence(litmus.FenceRead), litmus.Load("r_recd", "recd"), litmus.Load("r_len", "len")},
		},
	}
	after := &litmus.Program{
		Name: "call_decode (fixed)",
		Threads: []litmus.Thread{
			{litmus.Store("len", 1), litmus.Fence(litmus.FenceWrite), litmus.Store("recd", 1)},
			{litmus.Load("r_recd", "recd"), litmus.Fence(litmus.FenceRead), litmus.Load("r_len", "len")},
		},
	}
	bad := func(o litmus.Outcome) bool { return o["r_recd"] == 1 && o["r_len"] == 0 }
	resBefore := litmus.Run(before, litmus.Weak)
	resAfter := litmus.Run(after, litmus.Weak)
	fmt.Printf("bad state (reply seen complete, length stale) before fix: %v\n", resBefore.Has(bad))
	fmt.Printf("bad state after fix:                                      %v\n", resAfter.Has(bad))
}
