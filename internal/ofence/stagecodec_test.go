package ofence

import (
	"context"
	"encoding/json"
	"testing"

	"ofence/internal/rescache"
)

// analyzeJSONWithStages runs a two-file analysis over the given stage
// family and returns the serialized result.
func analyzeJSONWithStages(t *testing.T, stages *rescache.Stages) []byte {
	t.Helper()
	p := NewProjectWithStages(stages)
	p.AddSources([]SourceFile{
		{Name: "w.c", Src: incWriter},
		{Name: "r.c", Src: incReaderBuggy},
	})
	res, err := p.AnalyzeParallel(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := res.View()
	data, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPreprocessStageStoreRoundTrip: a fresh stage family (a "restarted
// process") sharing only the ArtifactStore serves the preprocess artifacts
// from blobs, and the analysis output is byte-identical to the cold run.
func TestPreprocessStageStoreRoundTrip(t *testing.T) {
	store := rescache.NewMemStore(0)

	cold := rescache.NewStages(0)
	cold.AttachStore(store, StageCodecs())
	coldJSON := analyzeJSONWithStages(t, cold)
	if st := cold.Stats()["preprocess"]; st.StorePuts == 0 {
		t.Fatalf("cold run published no preprocess blobs: %+v", st)
	}

	warm := rescache.NewStages(0)
	warm.AttachStore(store, StageCodecs())
	warmJSON := analyzeJSONWithStages(t, warm)
	st := warm.Stats()["preprocess"]
	if st.StoreHits != 2 {
		t.Fatalf("store hits = %d, want 2 (stats %+v)", st.StoreHits, st)
	}
	if st.Misses != 0 {
		t.Fatalf("preprocess ran %d times despite store blobs", st.Misses)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Fatalf("store-served analysis diverged:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
}

// TestPreprocessStageStoreRoundTripDisk is the same over a disk store with
// a close/reopen in between — the restart-survival contract.
func TestPreprocessStageStoreRoundTripDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := rescache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := rescache.NewStages(0)
	cold.AttachStore(store, StageCodecs())
	coldJSON := analyzeJSONWithStages(t, cold)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := rescache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	warm := rescache.NewStages(0)
	warm.AttachStore(store2, StageCodecs())
	warmJSON := analyzeJSONWithStages(t, warm)
	if st := warm.Stats()["preprocess"]; st.StoreHits != 2 || st.Misses != 0 {
		t.Fatalf("disk round trip: %+v", st)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("disk-served analysis diverged from cold run")
	}
}

// TestPreprocessCodecErrorStrings: diagnostics survive the byte round trip
// as strings.
func TestPreprocessCodecErrorStrings(t *testing.T) {
	store := rescache.NewMemStore(0)
	const bad = "#include \"no/such/header.h\"\n#endif\nint x;\n"

	cold := rescache.NewStages(0)
	cold.AttachStore(store, StageCodecs())
	p1 := NewProjectWithStages(cold)
	fu1 := p1.AddSource("bad.c", bad)
	mustAnalyze(t, p1, DefaultOptions())

	warm := rescache.NewStages(0)
	warm.AttachStore(store, StageCodecs())
	p2 := NewProjectWithStages(warm)
	fu2 := p2.AddSource("bad.c", bad)
	mustAnalyze(t, p2, DefaultOptions())

	if len(fu1.Errs) == 0 {
		t.Fatal("the stray #endif produced no diagnostic")
	}
	if len(fu1.Errs) != len(fu2.Errs) {
		t.Fatalf("error counts diverge: %d vs %d", len(fu1.Errs), len(fu2.Errs))
	}
	for i := range fu1.Errs {
		if fu1.Errs[i].Error() != fu2.Errs[i].Error() {
			t.Fatalf("error %d diverged: %q vs %q", i, fu1.Errs[i], fu2.Errs[i])
		}
	}
}
