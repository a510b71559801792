// parallel.go schedules the interprocedural fixpoint over the call graph's
// Tarjan condensation instead of round-robin over every node.
//
// Why this is sound: the per-function transfer is monotone in the callee
// kinds over a finite lattice, so any fair chaotic iteration from ⊥
// converges to the same unique least fixpoint — evaluation order changes
// only how many evaluations are spent, never the answer.
//
// Why this is fast: a function's kind depends only on its callees' kinds.
// g.SCCs() is already reverse-topological (callees before callers), so
// processing components in that order means every non-recursive function is
// evaluated EXACTLY once — its callees are final when it runs. Round-robin
// over every node instead pays a full pass over all N nodes per round, and
// needs one round per link of the longest call chain whose callee appears
// later in build order (a caller-in-earlier-file chain of depth D costs D·N
// evaluations; kernel-style wrapper stacks make D hundreds deep).
// Recursive components iterate locally to their own fixpoint — bounded by
// 2·|component|+1 tiny rounds — without dragging the rest of the graph
// along. Components that share a topological level cannot reach each other
// in either direction, so they evaluate concurrently; kinds live in a
// dense slice where distinct elements are distinct memory locations and
// level barriers provide the cross-level happens-before.
package semprop

import (
	"runtime"
	"sync/atomic"

	"ofence/internal/callgraph"
	"ofence/internal/memmodel"
	"ofence/internal/par"
)

// inferSCC runs the condensation-scheduled fixpoint, filling inf.
func inferSCC(g *callgraph.Graph, opts Options, extra map[string]bool, inf *Inference) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(g.Nodes)
	inf.Converged = true
	if n == 0 {
		return
	}

	// Per-function precomputation (block classification from the
	// summaries) is node-local; fan it out. Call candidates are node IDs, so
	// the hot evaluation loop never touches a map.
	infos := make([]*fnInfo, n)
	par.For(n, workers, func(i int) {
		infos[i] = precompute(g.Nodes[i], extra)
	})

	// Condense and level the component DAG. SCCs() returns components in
	// reverse topological order, so every cross-component callee has a
	// smaller component index and one ascending pass computes levels.
	comps := g.SCCs()
	compOf := make([]int32, n)
	for ci, comp := range comps {
		for _, nd := range comp {
			compOf[nd.ID] = int32(ci)
		}
	}
	level := make([]int32, len(comps))
	var maxLevel int32
	for ci, comp := range comps {
		for _, nd := range comp {
			for _, e := range nd.Calls {
				cc := compOf[e.Callee.ID]
				if int(cc) != ci && level[cc]+1 > level[ci] {
					level[ci] = level[cc] + 1
				}
			}
		}
		if level[ci] > maxLevel {
			maxLevel = level[ci]
		}
	}
	byLevel := make([][]int, maxLevel+1)
	for ci := range comps {
		byLevel[level[ci]] = append(byLevel[level[ci]], ci)
	}

	kinds := make([]memmodel.BarrierKind, n) // ⊥ = None
	var maxRounds atomic.Int64
	for _, compIDs := range byLevel {
		par.For(len(compIDs), workers, func(i int) {
			r := int64(evalComp(comps[compIDs[i]], infos, kinds))
			for {
				cur := maxRounds.Load()
				if r <= cur || maxRounds.CompareAndSwap(cur, r) {
					break
				}
			}
		})
	}

	inf.Rounds = int(maxRounds.Load())
	inf.Components = len(comps)
	inf.Levels = int(maxLevel) + 1
	inf.kinds = kinds
}

// evalComp evaluates one component to its local fixpoint, returning the
// local round count. Callee kinds outside the component are final (lower
// levels completed behind a barrier); kinds inside it are owned by this
// goroutine only.
func evalComp(comp []*callgraph.Node, infos []*fnInfo, kinds []memmodel.BarrierKind) int {
	if len(comp) == 1 && !callsSelf(comp[0]) {
		i := comp[0].ID
		kinds[i] = evaluate(infos[i], kinds)
		return 1
	}
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		for _, nd := range comp {
			i := nd.ID
			k := evaluate(infos[i], kinds)
			if k != kinds[i] {
				kinds[i] = k
				changed = true
			}
		}
	}
	return rounds
}

func callsSelf(n *callgraph.Node) bool {
	for _, e := range n.Calls {
		if e.Callee == n {
			return true
		}
	}
	return false
}

// evaluate runs the per-function MUST dataflow under the current
// interprocedural kinds and returns the function's barrier kind.
func evaluate(info *fnInfo, cur []memmodel.BarrierKind) memmodel.BarrierKind {
	nb := len(info.preds)
	if nb == 0 || len(info.exits) == 0 {
		return memmodel.None
	}

	// blockKind = static ∨ (for each dynamic call site, the meet over its
	// candidate targets: the semantics guaranteed whichever binds).
	blockKind := func(bi int) memmodel.BarrierKind {
		k := info.static[bi]
		for _, cs := range info.dynamic[bi] {
			ck := memmodel.FullBarrier
			for _, c := range cs {
				ck = meet(ck, cur[c])
			}
			k = join(k, ck)
		}
		return k
	}

	out := make([]memmodel.BarrierKind, nb)
	for i := range out {
		out[i] = memmodel.FullBarrier // top: optimistic for a must-analysis
	}
	// Iterate to the inner fixpoint; values only descend.
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < nb; bi++ {
			in := memmodel.None
			if bi != 0 { // entry keeps in = none: nothing executed yet
				if ps := info.preds[bi]; len(ps) > 0 {
					in = memmodel.FullBarrier
					for _, p := range ps {
						in = meet(in, out[p])
					}
				}
			}
			o := join(in, blockKind(bi))
			if o != out[bi] {
				out[bi] = o
				changed = true
			}
		}
	}

	k := memmodel.FullBarrier
	for _, e := range info.exits {
		k = meet(k, out[e])
	}
	return k
}
