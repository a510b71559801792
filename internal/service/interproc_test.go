package service

import (
	"strings"
	"testing"
)

// interprocRequest splits a barrier wrapper from its caller across files, so
// only an interprocedural analysis can form the pairing.
func interprocRequest() *Request {
	return &Request{Files: map[string]string{
		"writer.c": `
struct foo { int data; int flag; };
void publish_barrier(void);
void producer(struct foo *f) {
	f->data = 1;
	publish_barrier();
	f->flag = 1;
}`,
		"barrier.c": `void publish_barrier(void) { smp_wmb(); }`,
		"reader.c": `
struct foo { int data; int flag; };
void consumer(struct foo *f) {
	int ready = f->flag;
	smp_rmb();
	int d = f->data;
}`,
	}}
}

// InterprocDepth must reach the engine options and change the cache
// fingerprint: the same sources at different depths are different results.
func TestInterprocOptionsSpec(t *testing.T) {
	base := OptionsSpec{}.Resolve()
	deep := OptionsSpec{InterprocDepth: 2}.Resolve()
	if base.InterprocDepth != 0 || deep.InterprocDepth != 2 {
		t.Fatalf("depths = %d, %d", base.InterprocDepth, deep.InterprocDepth)
	}
	if base.Fingerprint() == deep.Fingerprint() {
		t.Error("fingerprint ignores InterprocDepth; depth changes would hit stale cache entries")
	}
}

// An interprocedural job must surface the inferred semantics in the response
// and accumulate the ofence_inferred_semantics_total counter.
func TestInterprocJobAndMetric(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})

	// Depth 0: no pairing (the barrier context is in another file), no
	// inferred set, counter stays zero.
	j, err := s.Submit(interprocRequest(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	res := resultOf(t, waitDone(t, j))
	if len(res.Pairings) != 0 || len(res.Inferred) != 0 {
		t.Fatalf("depth 0: %d pairings, %d inferred, want 0/0",
			len(res.Pairings), len(res.Inferred))
	}

	j, err = s.Submit(interprocRequest(), OptionsSpec{InterprocDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	res = resultOf(t, waitDone(t, j))
	if len(res.Pairings) != 1 {
		t.Errorf("depth 2: pairings = %d, want 1", len(res.Pairings))
	}
	found := false
	for _, f := range res.Inferred {
		if f.Name == "publish_barrier" {
			found = true
		}
	}
	if !found {
		t.Errorf("inferred set %v missing publish_barrier", res.Inferred)
	}

	text := s.MetricsText()
	line := ""
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "ofence_inferred_semantics_total") {
			line = l
		}
	}
	if line == "" {
		t.Fatal("ofence_inferred_semantics_total missing from /metrics")
	}
	if strings.HasSuffix(line, " 0") {
		t.Errorf("counter not accumulated: %q", line)
	}
}
