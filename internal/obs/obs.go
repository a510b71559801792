// Package obs is the zero-dependency observability layer of the analysis
// pipeline: hierarchical spans carried through context.Context record wall
// time, allocation deltas, free-form attributes and integer counters for
// every stage — preprocess, parse, CFG build, extraction, call-graph and
// semantics-propagation fixpoint, pairing, checking, diagnostics and patch
// generation.
//
// Instrumentation is nil-safe by design: Start on a context with no Tracer
// returns a nil *Span whose methods are all no-ops, so instrumented code
// pays one context lookup and nothing else when tracing is off. All types
// are safe for concurrent use; spans started from the parallel extraction
// and checking fan-outs attach to their parent without extra coordination.
//
// Exporters: Tracer.Tree renders a human-readable stage tree (the -trace
// flag of cmd/ofence), Tracer.ChromeTrace emits Chrome trace_event JSON
// loadable in chrome://tracing or Perfetto (the -trace-out flag), and
// internal/service folds finished span durations into the
// ofence_stage_duration_seconds Prometheus histograms.
package obs

import (
	"context"
	"runtime/metrics"
	"sync"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// Attr is one key/value annotation on a span (e.g. file=drivers/foo.c).
type Attr struct {
	Key   string
	Value string
}

// Counter is one named integer total accumulated on a span (e.g. tokens,
// barrier sites, candidate pairings pruned).
type Counter struct {
	Name  string
	Value int64
}

// Tracer collects the spans of one traced operation. Create with New,
// install into a context with WithTracer, and read the spans back with
// Roots or Spans once the operation finishes.
type Tracer struct {
	now      func() time.Time
	memStats bool

	mu     sync.Mutex
	nextID int
	spans  []*Span
	roots  []*Span
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock substitutes the time source (tests use a deterministic clock so
// exported traces are byte-stable).
func WithClock(now func() time.Time) Option {
	return func(t *Tracer) { t.now = now }
}

// WithMemStats samples the heap allocation counters of runtime/metrics at
// every span boundary and records per-span allocation deltas: bytes, and
// objects counted as runtime.MemStats.Mallocs counts them. The counters
// are process-global and a P's small allocations reach them in batches, so
// deltas attribute concurrent stages, and spans that allocate little,
// approximately. Unlike runtime.ReadMemStats, a sample does not stop the
// world, so the thousands of spans of a traced tree run stay cheap.
func WithMemStats() Option {
	return func(t *Tracer) { t.memStats = true }
}

// heapAllocs reads the cumulative bytes and objects allocated on the heap.
// The objects count the tiny allocations packed into each tiny block one by
// one, as runtime.MemStats.Mallocs does: /gc/heap/allocs:objects counts only
// the blocks, and the lexer's and parser's small strings are mostly tiny.
func heapAllocs() (bytes, objects uint64) {
	s := [3]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// New returns an empty tracer.
func New(opts ...Option) *Tracer {
	t := &Tracer{now: time.Now}
	for _, o := range opts {
		o(t)
	}
	return t
}

// WithTracer returns a context that carries the tracer; spans started under
// it are recorded.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the context's tracer, or nil when tracing is off.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Enabled reports whether spans started under ctx will be recorded; use it
// to guard attribute computations that are themselves expensive.
func Enabled(ctx context.Context) bool { return FromContext(ctx) != nil }

// Start begins a span named name under the context's current span and
// returns a context carrying the new span as the parent for its children.
// When the context has no tracer it returns (ctx, nil); the nil span's
// methods are all no-ops.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	sp := t.start(name, parent)
	return context.WithValue(ctx, spanKey, sp), sp
}

// CurrentSpan returns the span carried by ctx, or nil.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

func (t *Tracer) start(name string, parent *Span) *Span {
	sp := &Span{tracer: t, name: name, parent: parent}
	if t.memStats {
		sp.startAlloc, sp.startMallocs = heapAllocs()
	}
	t.mu.Lock()
	t.nextID++
	sp.id = t.nextID
	sp.start = t.now()
	t.spans = append(t.spans, sp)
	if parent == nil {
		t.roots = append(t.roots, sp)
	}
	t.mu.Unlock()
	if parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
	}
	return sp
}

// Roots returns a snapshot of the top-level spans in start order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// Spans returns a snapshot of every span in creation order, finished or not.
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Span is one timed stage of the pipeline. The zero value is not used;
// spans come from Start, and a nil *Span (tracing off) is a valid no-op
// receiver for every method.
type Span struct {
	tracer       *Tracer
	id           int
	name         string
	parent       *Span
	start        time.Time
	startAlloc   uint64
	startMallocs uint64

	mu         sync.Mutex
	end        time.Time
	ended      bool
	attrs      []Attr
	counters   []Counter
	children   []*Span
	allocBytes uint64
	mallocs    uint64
}

// End finishes the span, recording its end time (and, with WithMemStats,
// its allocation delta). End is idempotent; only the first call counts.
func (s *Span) End() {
	if s == nil {
		return
	}
	var alloc, mallocs uint64
	if s.tracer.memStats {
		alloc, mallocs = heapAllocs()
		alloc, mallocs = alloc-s.startAlloc, mallocs-s.startMallocs
	}
	end := s.tracer.now()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = end
		s.allocBytes, s.mallocs = alloc, mallocs
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a key/value attribute. Repeated keys are
// kept in call order (attributes are labels, not counters).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Add accumulates n into the span's named counter.
func (s *Span) Add(counter string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.counters {
		if s.counters[i].Name == counter {
			s.counters[i].Value += n
			s.mu.Unlock()
			return
		}
	}
	s.counters = append(s.counters, Counter{Name: counter, Value: n})
	s.mu.Unlock()
}

// Name returns the span's stage name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's creation-ordered identifier (1-based).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// Parent returns the enclosing span, or nil for roots.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// StartTime returns when the span started.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Elapsed returns the span's duration and whether it has ended; unfinished
// spans report false.
func (s *Span) Elapsed() (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0, false
	}
	return s.end.Sub(s.start), true
}

// Attrs returns a snapshot of the span's attributes in call order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Counters returns a snapshot of the span's counters in first-use order.
func (s *Span) Counters() []Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Counter, len(s.counters))
	copy(out, s.counters)
	return out
}

// Children returns a snapshot of the direct child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// MemStats returns the span's allocation delta (bytes, mallocs) and whether
// one was recorded (requires WithMemStats and a finished span).
func (s *Span) MemStats() (allocBytes, mallocs uint64, ok bool) {
	if s == nil || !s.tracer.memStats {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0, 0, false
	}
	return s.allocBytes, s.mallocs, true
}
