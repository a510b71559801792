package ofence_test

import (
	"math/rand"
	"testing"

	"ofence/internal/corpus"
	ofence "ofence/internal/ofence"
)

// The pipeline must never panic on malformed input: Smatch-style resilience
// means a broken file degrades to parse diagnostics, not a crash.

func TestAnalyzeSurvivesMutatedSources(t *testing.T) {
	cfg := corpus.DefaultConfig(99)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.InitFlag: 4, corpus.Seqcount: 1, corpus.Unneeded: 1,
	}
	c := corpus.Generate(cfg)
	rng := rand.New(rand.NewSource(7))

	mutate := func(src string) string {
		b := []byte(src)
		n := 1 + rng.Intn(8)
		for i := 0; i < n && len(b) > 0; i++ {
			pos := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0: // flip to random printable
				b[pos] = byte(32 + rng.Intn(95))
			case 1: // delete
				b = append(b[:pos], b[pos+1:]...)
			case 2: // duplicate
				b = append(b[:pos], append([]byte{b[pos]}, b[pos:]...)...)
			}
		}
		return string(b)
	}

	for round := 0; round < 50; round++ {
		p := ofence.NewProject()
		for _, name := range c.Order {
			p.AddSource(name, mutate(c.Files[name]))
		}
		res := mustAnalyze(t, p, ofence.DefaultOptions()) // must not panic
		_ = res.Findings
		_ = res.View() // nor the serialization
	}
}

func TestAnalyzeSurvivesTruncatedSources(t *testing.T) {
	cfg := corpus.DefaultConfig(3)
	cfg.Counts = map[corpus.PatternKind]int{corpus.InitFlag: 3}
	c := corpus.Generate(cfg)
	for _, name := range c.Order {
		src := c.Files[name]
		for cut := 0; cut < len(src); cut += 37 {
			p := ofence.NewProject()
			p.AddSource(name, src[:cut])
			mustAnalyze(t, p, ofence.DefaultOptions()) // must not panic
		}
	}
}

func TestAnalyzeEmptyAndDegenerate(t *testing.T) {
	for _, src := range []string{
		"",
		";",
		"\x00\x01\x02",
		"#define",
		"#include",
		"struct s",
		"void f(",
		"/*",
		`"`,
		"int x = ",
		"#if 1",
		"}}}}}}",
	} {
		p := ofence.NewProject()
		p.AddSource("d.c", src)
		mustAnalyze(t, p, ofence.DefaultOptions()) // must not panic
	}
}
