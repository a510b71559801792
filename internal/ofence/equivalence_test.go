package ofence

import (
	"encoding/json"
	"testing"
)

// resultJSON renders a result through its stable serialized projection.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.View())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInterprocCalleeEditInvalidatesCaller pins the interprocedural
// invalidation rule: an edit that changes a name's inferred kind re-keys
// every file observing that kind, so callers never reuse sites built over
// stale inferred semantics — while unrelated files stay cached.
func TestInterprocCalleeEditInvalidatesCaller(t *testing.T) {
	opts := DefaultOptions()
	opts.InterprocDepth = 2

	p := interprocProject(t)
	if got := mustAnalyze(t, p, opts); len(got.Pairings) != 1 {
		t.Fatalf("warm-up pairings = %d, want 1", len(got.Pairings))
	}

	// Gut the helper: publish_barrier no longer implies a write barrier, so
	// producer's pairing must disappear even though writer.c is untouched.
	const guttedBarrier = `
void publish_barrier(void) { }
`
	cold := NewProject()
	cold.AddHeader("shared.h", `struct foo { int data; int flag; };`)
	for _, fu := range p.Files() {
		if fu.Name == "barrier.c" {
			cold.AddSource(fu.Name, guttedBarrier)
			continue
		}
		cold.AddSource(fu.Name, fu.src)
	}
	coldRes := mustAnalyze(t, cold, opts)
	if len(coldRes.Pairings) != 0 {
		t.Fatalf("cold gutted pairings = %d, want 0", len(coldRes.Pairings))
	}

	p.ReplaceSource("barrier.c", guttedBarrier)
	res := mustAnalyze(t, p, opts)
	if got, want := resultJSON(t, res), resultJSON(t, coldRes); got != want {
		t.Errorf("incremental result differs from cold analysis:\n%s\nvs\n%s", got, want)
	}
	// barrier.c changed; writer.c calls into it, so both recompute.
	// reader.c has no path to barrier.c and is served from cache.
	if got := res.Incremental; got.FilesRecomputed != 2 || got.FilesReused != 1 {
		t.Errorf("recomputed=%d reused=%d, want 2/1 (callee + caller, reader cached)", got.FilesRecomputed, got.FilesReused)
	}
}
