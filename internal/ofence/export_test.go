package ofence

import (
	"context"

	"ofence/internal/cast"
)

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

// FrontendForTest runs the front end for (name, src) under the project's
// current environment, as analysis does, and returns the parse tree. The
// header-declaration memo keeps what the parse records.
func (p *Project) FrontendForTest(name, src string) *cast.File {
	art, _ := frontendWith(context.Background(), name, src, p.envSnapshot(), nil)
	return art.ast
}
