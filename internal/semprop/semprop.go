// Package semprop infers implicit barrier semantics interprocedurally: a
// function whose every path from entry to exit executes a memory barrier —
// an explicit Table 1 primitive, a Table 2 function, or a call to an
// already-inferred function — is itself classified as an implicit read,
// write, or full barrier.
//
// This automatically re-derives the paper's hand-curated Table 2 from
// function bodies instead of hardcoding it, and extends it with
// corpus-specific wrappers (the paper's main source of missed pairings when
// barrier and accesses live in different files).
//
// # The lattice
//
// Kinds form a diamond lattice ordered by "how much the function orders":
//
//	    full
//	   /    \
//	read    write
//	   \    /
//	    none
//
// join(read, write) = full (executing both orders both); meet(read, write)
// = none (a path guaranteed only one of them guarantees neither to a caller
// that needs both).
//
// # The analysis
//
// Per function, a forward MUST dataflow over the control-flow graph
// (internal/cfg, reduced to a callgraph.Flow by callgraph.Summarize): in(b)
// is the meet over predecessors' out (entry starts at none — nothing has
// executed), out(b) joins in(b) with the barriers the block itself
// executes. The function's kind is the meet over all exit blocks — the
// ordering guaranteed on EVERY path. Blocks start at full (top) and only
// descend, so the inner fixpoint terminates. The inference reads nothing
// but the graph and its summaries: it never touches an AST.
//
// Interprocedurally, all functions start at none and the per-function
// analysis is re-run — calls contributing their callee's current kind —
// until nothing changes. Kinds only ascend (the transfer function is
// monotone in the callee kinds), each function can ascend at most twice
// (none -> read/write -> full), so the outer fixpoint terminates within
// 2*|functions|+1 rounds. Recursive and mutually recursive functions are
// handled by the same iteration: they start at none (a sound
// under-approximation) and stabilize like every other node. Calls through
// unresolved function pointers contribute none — degrading to the paper's
// intraprocedural behavior, never erroring.
package semprop

import (
	"context"
	"sort"

	"ofence/internal/callgraph"
	"ofence/internal/memmodel"
)

// join is the least upper bound of the kind lattice.
func join(a, b memmodel.BarrierKind) memmodel.BarrierKind {
	if a == b {
		return a
	}
	if a == memmodel.None {
		return b
	}
	if b == memmodel.None {
		return a
	}
	return memmodel.FullBarrier // read ∨ write, or anything ∨ full
}

// meet is the greatest lower bound of the kind lattice.
func meet(a, b memmodel.BarrierKind) memmodel.BarrierKind {
	if a == b {
		return a
	}
	if a == memmodel.FullBarrier {
		return b
	}
	if b == memmodel.FullBarrier {
		return a
	}
	return memmodel.None // read ∧ write, or anything ∧ none
}

// Options configures the inference.
type Options struct {
	// ExtraFull lists functions assumed to imply a full barrier, mirroring
	// access.Options.ExtraBarrierSemantics (user extensions of Table 2).
	ExtraFull []string
	// Workers bounds the SCC schedule's parallelism (0 = GOMAXPROCS).
	Workers int
}

// InferredFn is one function with inferred barrier semantics.
type InferredFn struct {
	Name string
	File string
	Kind memmodel.BarrierKind
	// Known marks functions already in the built-in memmodel catalog
	// (Table 1 or Table 2) — inference re-derived them rather than
	// discovering something new.
	Known bool
}

// Inference is the fixpoint result.
type Inference struct {
	Graph *callgraph.Graph
	// Rounds is the largest number of local rounds any component needed
	// to reach its fixpoint (1 when no function is recursive).
	Rounds int
	// Converged reports whether the fixpoint was reached. Every component
	// iterates to its local fixpoint, so it is always true; reports print
	// it.
	Converged bool
	// Components is the number of strongly connected components the SCC
	// schedule processed.
	Components int
	// Levels is the depth of the condensation's topological levelling the
	// SCC schedule walked.
	Levels int

	// kinds holds each node's kind, indexed by Node.ID.
	kinds []memmodel.BarrierKind
}

// Kind returns the inferred kind for a graph node.
func (inf *Inference) Kind(n *callgraph.Node) memmodel.BarrierKind {
	if n.ID < len(inf.kinds) && inf.Graph.Nodes[n.ID] == n {
		return inf.kinds[n.ID]
	}
	return memmodel.None
}

// Functions returns every function with non-none inferred semantics, sorted
// by (name, file) for deterministic reports.
func (inf *Inference) Functions() []InferredFn {
	var out []InferredFn
	for i, k := range inf.kinds {
		if k == memmodel.None {
			continue
		}
		n := inf.Graph.Nodes[i]
		known := memmodel.IsBarrier(n.Name()) || memmodel.Lookup(n.Name()) != nil ||
			memmodel.SeqcountKind(n.Name()) != memmodel.None
		out = append(out, InferredFn{Name: n.Name(), File: n.File, Kind: k, Known: known})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].File < out[j].File
	})
	return out
}

// NameKinds flattens the inference to a name-keyed map for extraction
// (access.Options.InferredSemantics). When several definitions share a name
// (file-local statics), the meet is taken — the semantics any call site can
// rely on regardless of which definition it binds to. Names with kind none
// are omitted.
func (inf *Inference) NameKinds() map[string]memmodel.BarrierKind {
	byName := map[string]memmodel.BarrierKind{}
	seen := map[string]bool{}
	for i, k := range inf.kinds {
		name := inf.Graph.Nodes[i].Name()
		if !seen[name] {
			seen[name] = true
			byName[name] = k
			continue
		}
		byName[name] = meet(byName[name], k)
	}
	for name, k := range byName {
		if k == memmodel.None {
			delete(byName, name)
		}
	}
	return byName
}

// InferredOnly returns the names whose barrier semantics exist ONLY by
// inference — functions the fixpoint classified as implicit barriers that
// the built-in memmodel catalog does not list. Orderings resting on these
// names carry extra uncertainty, which the confidence ranker
// (internal/rank) discounts. The input is Result.Inferred; a nil slice
// (depth 0) yields an empty map.
func InferredOnly(fns []InferredFn) map[string]bool {
	out := make(map[string]bool, len(fns))
	for _, f := range fns {
		if !f.Known {
			out[f.Name] = true
		}
	}
	return out
}

// fnInfo is the per-function precomputation reused across fixpoint rounds.
type fnInfo struct {
	// static is each block's barrier contribution from the catalogs alone.
	static []memmodel.BarrierKind
	// dynamic lists, per block and call site, the node IDs of the resolved
	// call candidates whose inferred kinds contribute on re-evaluation.
	dynamic [][][]int32
	// exits are the reachable no-successor block IDs.
	exits []int32
	preds [][]int32
}

// Infer runs the interprocedural fixpoint over g, scheduled over the
// Tarjan condensation (see parallel.go): each strongly connected component
// is evaluated to its local fixpoint exactly once, in topological order,
// with independent components of a level running concurrently.
func Infer(g *callgraph.Graph, opts Options) *Inference {
	inf, _ := InferCtx(context.Background(), g, opts)
	return inf
}

// InferCtx is Infer polling ctx before each level of the condensation and
// each component: once ctx is done it stops and returns ctx's error and no
// inference.
func InferCtx(ctx context.Context, g *callgraph.Graph, opts Options) (*Inference, error) {
	extra := map[string]bool{}
	for _, name := range opts.ExtraFull {
		extra[name] = true
	}
	inf := &Inference{Graph: g}
	inferSCC(ctx, g, opts, extra, inf)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return inf, nil
}

// precompute splits each block's barrier contribution into the static part
// (catalog lookups, fixed across rounds) and the dynamic part (resolved
// callees, as node IDs, whose kinds evolve). A call resolved to
// definitions is judged by those definitions — re-derived, not hardcoded.
func precompute(n *callgraph.Node, extra map[string]bool) *fnInfo {
	f := n.Func
	nb := len(f.Flow.Preds)
	info := &fnInfo{
		static:  make([]memmodel.BarrierKind, nb),
		dynamic: make([][][]int32, nb),
		exits:   f.Flow.Exits,
		preds:   f.Flow.Preds,
	}
	cands := make([][]int32, len(f.Calls))
	for _, e := range n.Calls {
		cands[e.Site] = append(cands[e.Site], int32(e.Callee.ID))
	}
	for bi, sites := range f.Flow.Calls {
		for _, site := range sites {
			if cs := cands[site]; len(cs) > 0 {
				info.dynamic[bi] = append(info.dynamic[bi], cs)
				continue
			}
			c := &f.Calls[site]
			if c.Name == "" {
				continue // unresolved pointer call: contributes none
			}
			k := c.Kind
			if k == memmodel.None && extra[c.Name] {
				k = memmodel.FullBarrier
			}
			info.static[bi] = join(info.static[bi], k)
		}
	}
	return info
}
