package ofence

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
