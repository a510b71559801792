package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock advancing step per call.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0).UTC()
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

func TestNoTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	if Enabled(ctx) {
		t.Error("Enabled on bare context")
	}
	ctx2, sp := Start(ctx, "stage")
	if sp != nil {
		t.Fatal("Start without tracer returned a span")
	}
	if ctx2 != ctx {
		t.Error("Start without tracer changed the context")
	}
	// Every method must be safe on the nil span.
	sp.End()
	sp.SetAttr("k", "v")
	sp.Add("n", 1)
	if sp.Name() != "" || sp.ID() != 0 || sp.Parent() != nil {
		t.Error("nil span accessors not zero")
	}
	if _, ok := sp.Elapsed(); ok {
		t.Error("nil span reports elapsed")
	}
	if sp.Attrs() != nil || sp.Counters() != nil || sp.Children() != nil {
		t.Error("nil span snapshots not nil")
	}
	if _, _, ok := sp.MemStats(); ok {
		t.Error("nil span reports memstats")
	}
}

// TestSpanNesting is the table-driven structural test: each case builds a
// span shape and asserts the parent/child relationships and durations the
// tracer recorded.
func TestSpanNesting(t *testing.T) {
	cases := []struct {
		name      string
		build     func(ctx context.Context)
		wantRoots int
		wantSpans int
		// wantParent maps span name -> parent name ("" = root).
		wantParent map[string]string
	}{
		{
			name: "single root",
			build: func(ctx context.Context) {
				_, sp := Start(ctx, "a")
				sp.End()
			},
			wantRoots:  1,
			wantSpans:  1,
			wantParent: map[string]string{"a": ""},
		},
		{
			name: "parent child grandchild",
			build: func(ctx context.Context) {
				ctx, a := Start(ctx, "a")
				ctx, b := Start(ctx, "b")
				_, c := Start(ctx, "c")
				c.End()
				b.End()
				a.End()
			},
			wantRoots:  1,
			wantSpans:  3,
			wantParent: map[string]string{"a": "", "b": "a", "c": "b"},
		},
		{
			name: "siblings share parent",
			build: func(ctx context.Context) {
				ctx, a := Start(ctx, "a")
				_, b := Start(ctx, "b")
				b.End()
				_, c := Start(ctx, "c")
				c.End()
				a.End()
			},
			wantRoots:  1,
			wantSpans:  3,
			wantParent: map[string]string{"a": "", "b": "a", "c": "a"},
		},
		{
			name: "two roots",
			build: func(ctx context.Context) {
				_, a := Start(ctx, "a")
				a.End()
				_, b := Start(ctx, "b")
				b.End()
			},
			wantRoots:  2,
			wantSpans:  2,
			wantParent: map[string]string{"a": "", "b": ""},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(WithClock(fakeClock(time.Millisecond)))
			tc.build(WithTracer(context.Background(), tr))
			if got := len(tr.Roots()); got != tc.wantRoots {
				t.Errorf("roots = %d, want %d", got, tc.wantRoots)
			}
			spans := tr.Spans()
			if got := len(spans); got != tc.wantSpans {
				t.Fatalf("spans = %d, want %d", got, tc.wantSpans)
			}
			for _, sp := range spans {
				wantParent, ok := tc.wantParent[sp.Name()]
				if !ok {
					t.Errorf("unexpected span %q", sp.Name())
					continue
				}
				if got := sp.Parent().Name(); got != wantParent {
					t.Errorf("parent of %q = %q, want %q", sp.Name(), got, wantParent)
				}
				d, ended := sp.Elapsed()
				if !ended {
					t.Errorf("span %q not ended", sp.Name())
				}
				if d <= 0 {
					t.Errorf("span %q duration = %v", sp.Name(), d)
				}
			}
		})
	}
}

func TestAttributesAndCounters(t *testing.T) {
	tr := New(WithClock(fakeClock(time.Millisecond)))
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "stage")
	sp.SetAttr("file", "a.c")
	sp.SetAttr("mode", "interproc")
	sp.Add("tokens", 10)
	sp.Add("tokens", 5)
	sp.Add("sites", 2)
	sp.End()

	attrs := sp.Attrs()
	if len(attrs) != 2 || attrs[0] != (Attr{"file", "a.c"}) || attrs[1] != (Attr{"mode", "interproc"}) {
		t.Errorf("attrs = %v", attrs)
	}
	counters := sp.Counters()
	if len(counters) != 2 {
		t.Fatalf("counters = %v", counters)
	}
	if counters[0] != (Counter{"tokens", 15}) {
		t.Errorf("tokens counter = %v, want accumulated 15", counters[0])
	}
	if counters[1] != (Counter{"sites", 2}) {
		t.Errorf("sites counter = %v", counters[1])
	}
}

func TestEndIsIdempotent(t *testing.T) {
	clock := fakeClock(time.Millisecond)
	tr := New(WithClock(clock))
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "stage")
	sp.End()
	first, _ := sp.Elapsed()
	sp.End()
	second, _ := sp.Elapsed()
	if first != second {
		t.Errorf("second End changed duration: %v -> %v", first, second)
	}
}

// TestConcurrentSpans exercises the AnalyzeParallel shape: many goroutines
// starting sibling spans under one parent, with counters hammered
// concurrently. Run under -race by make race.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	ctx, parent := Start(ctx, "extract")
	const workers = 32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "extract.file")
			sp.SetAttr("file", fmt.Sprintf("f%d.c", i))
			for j := 0; j < 100; j++ {
				sp.Add("units", 1)
				parent.Add("total", 1)
			}
			sp.End()
		}(i)
	}
	wg.Wait()
	parent.End()

	children := parent.Children()
	if len(children) != workers {
		t.Fatalf("children = %d, want %d", len(children), workers)
	}
	for _, c := range children {
		if c.Parent() != parent {
			t.Error("child lost its parent")
		}
		counters := c.Counters()
		if len(counters) != 1 || counters[0].Value != 100 {
			t.Errorf("child counters = %v", counters)
		}
	}
	totals := parent.Counters()
	if len(totals) != 1 || totals[0].Value != workers*100 {
		t.Errorf("parent counter = %v, want %d", totals, workers*100)
	}
	if len(tr.Spans()) != workers+1 {
		t.Errorf("spans = %d", len(tr.Spans()))
	}
}

// tinySink keeps TestMemStatsSampling's tiny objects on the heap.
var tinySink []*[8]byte

func TestMemStatsSampling(t *testing.T) {
	tr := New(WithMemStats())
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "alloc")
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	sp.End()
	alloc, mallocs, ok := sp.MemStats()
	if !ok {
		t.Fatal("no memstats recorded with WithMemStats")
	}
	if alloc == 0 || mallocs == 0 {
		t.Errorf("alloc=%d mallocs=%d, want nonzero after allocating", alloc, mallocs)
	}

	// Tiny allocations count one by one, not once per 16-byte block that
	// packs two of them.
	const tiny = 100_000
	_, sp = Start(ctx, "tiny")
	tinySink = make([]*[8]byte, tiny)
	for i := range tinySink {
		tinySink[i] = new([8]byte)
	}
	sp.End()
	tinySink = nil
	if _, mallocs, _ := sp.MemStats(); mallocs < tiny*9/10 {
		t.Errorf("mallocs=%d after %d tiny allocations, want about as many", mallocs, tiny)
	}

	// Without the option the span must not pay for sampling.
	tr2 := New()
	ctx2 := WithTracer(context.Background(), tr2)
	_, sp2 := Start(ctx2, "noalloc")
	sp2.End()
	if _, _, ok := sp2.MemStats(); ok {
		t.Error("memstats recorded without WithMemStats")
	}
}

func TestTreeRendering(t *testing.T) {
	tr := New(WithClock(fakeClock(time.Millisecond)))
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "analyze")
	root.Add("files", 2)
	ctx2, ex := Start(ctx, "extract")
	_, f1 := Start(ctx2, "extract.file")
	f1.SetAttr("file", "a.c")
	f1.End()
	ex.End()
	_, pair := Start(ctx, "pair")
	pair.End()
	root.End()

	tree := tr.Tree()
	for _, want := range []string{
		"analyze", "{files=2}",
		"├─ extract", "│  └─ extract.file", "[file=a.c]",
		"└─ pair",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestTreeUnfinishedSpan(t *testing.T) {
	tr := New(WithClock(fakeClock(time.Millisecond)))
	ctx := WithTracer(context.Background(), tr)
	Start(ctx, "stuck")
	if !strings.Contains(tr.Tree(), "(unfinished)") {
		t.Errorf("tree does not mark unfinished span:\n%s", tr.Tree())
	}
}
