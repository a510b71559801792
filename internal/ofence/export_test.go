package ofence

// UseLegacyFrontendForTest routes the project's frontend through the
// pre-overhaul oracle: the rune-based lexer, the arena-free parser, and no
// identifier canonicalization. Differential tests and benchmarks compare
// production runs against projects configured this way.
func (p *Project) UseLegacyFrontendForTest() { p.legacyFrontend = true }

// UseSequentialGlobalForTest routes the project's interprocedural global
// phases through the sequential pre-sharding oracle: callgraph.Build, the
// round-robin semprop fixpoint, the per-file closure BFS and unsharded
// site dedup. The tree-scale overhaul's differential tests and benchmarks
// compare production runs against projects configured this way.
func (p *Project) UseSequentialGlobalForTest() { p.seqGlobal = true }

// FrontendMetersForTest sums the per-file frontend meters (preprocessed
// token count, AST arena bytes) across the project's artifact records.
func (p *Project) FrontendMetersForTest() (tokens, arenaBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fu := range p.files {
		if fu.art != nil {
			tokens += int64(fu.art.tokens)
			arenaBytes += fu.art.arenaBytes
		}
	}
	return
}
