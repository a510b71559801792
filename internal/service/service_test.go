package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ofence/internal/ofence"
)

// testSrc carries one write/read barrier pairing with a misplaced-access
// deviation, so a correct analysis reports 1 pairing and >= 1 finding.
const testSrc = `
struct box { int flag; int data; };
void box_pub(struct box *b) {
	b->data = 41;
	smp_wmb();
	b->flag = 1;
}
void box_sub(struct box *b) {
	smp_rmb();
	if (!b->flag)
		return;
	use(b->data);
}`

// srcVariant renames every identifier so each variant preprocesses to a
// distinct token stream (distinct cache key) with the same analysis shape.
func srcVariant(i int) string {
	return strings.ReplaceAll(testSrc, "box", fmt.Sprintf("box%d", i))
}

func testRequest(src string) *Request {
	return &Request{Files: map[string]string{"a.c": src}}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func waitDone(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID(), j.View().State)
	}
	return j.View()
}

// resultOf decodes a job's result JSON.
func resultOf(t *testing.T, v JobView) *ofence.ResultView {
	t.Helper()
	if len(v.Result) == 0 {
		t.Fatalf("job %s (%s) has no result: %s", v.ID, v.State, v.Error)
	}
	res := &ofence.ResultView{}
	if err := json.Unmarshal(v.Result, res); err != nil {
		t.Fatalf("job %s result: %v", v.ID, err)
	}
	return res
}

// stubAnalysis replaces the in-process workers' analysis. Call it before
// the first Submit.
func stubAnalysis(s *Service, fn func(ctx context.Context, t *Task) (*completeRequest, error)) {
	s.local.analyzeFn = fn
}

// emptyResult is a stub analysis's successful outcome.
func emptyResult() *completeRequest {
	return &completeRequest{Result: json.RawMessage(`{}`)}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxSourceBytes: 64})
	if _, err := s.Submit(&Request{}, OptionsSpec{}); err != ErrNoFiles {
		t.Errorf("empty request: err = %v", err)
	}
	big := &Request{Files: map[string]string{"a.c": strings.Repeat("x", 100)}}
	if _, err := s.Submit(big, OptionsSpec{}); err != ErrTooLarge {
		t.Errorf("oversized request: err = %v", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testRequest("int x;"), OptionsSpec{}); err != ErrClosed {
		t.Errorf("closed service: err = %v", err)
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	first := waitDone(t, mustSubmit(t, s, testRequest(testSrc)))
	if first.State != JobDone || first.CacheHit {
		t.Fatalf("first job: %+v", first)
	}
	if res := resultOf(t, first); len(res.Pairings) != 1 {
		t.Fatalf("first result: %+v", res)
	}
	second := waitDone(t, mustSubmit(t, s, testRequest(testSrc)))
	if second.State != JobDone || !second.CacheHit {
		t.Fatalf("second job should hit the cache: %+v", second)
	}
	// Cached and computed results are the same bytes.
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result differs:\n%s\nvs\n%s", first.Result, second.Result)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	waitDone(t, mustSubmit(t, s, testRequest(testSrc)))

	// Different options fingerprint -> different key -> miss.
	j, err := s.Submit(testRequest(testSrc), OptionsSpec{WriteWindow: 9})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j); v.CacheHit {
		t.Error("changed options must not hit the cache")
	}
	// Different source -> miss.
	if v := waitDone(t, mustSubmit(t, s, testRequest(srcVariant(1)))); v.CacheHit {
		t.Error("changed source must not hit the cache")
	}
	// Workers is scheduling-only and must NOT change the key.
	j, err = s.Submit(testRequest(testSrc), OptionsSpec{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j); !v.CacheHit {
		t.Error("workers option must not miss the cache")
	}
}

func mustSubmit(t *testing.T, s *Service, req *Request) *Job {
	t.Helper()
	j, err := s.Submit(req, OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestInflightDeduplication(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan string, 2)
	stubAnalysis(s, func(context.Context, *Task) (*completeRequest, error) {
		started <- "run"
		<-release
		return emptyResult(), nil
	})
	j1 := mustSubmit(t, s, testRequest(testSrc))
	<-started // leader is inside analyzeFn
	j2 := mustSubmit(t, s, testRequest(testSrc))

	// The follower must join the leader's flight, not start a second run.
	deadline := time.After(10 * time.Second)
	for s.CacheStats().Dedups == 0 {
		select {
		case <-deadline:
			t.Fatal("follower never joined the in-flight analysis")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	v1, v2 := waitDone(t, j1), waitDone(t, j2)
	if v1.State != JobDone || v2.State != JobDone {
		t.Fatalf("states: %s / %s", v1.State, v2.State)
	}
	if v1.CacheHit || !v2.CacheHit {
		t.Errorf("cache hits: leader=%t follower=%t", v1.CacheHit, v2.CacheHit)
	}
	if len(started) != 0 {
		t.Error("analysis ran twice for identical requests")
	}
}

func TestJobTimeout(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, JobTimeout: 20 * time.Millisecond, RetryBackoff: time.Millisecond})
	stubAnalysis(s, func(ctx context.Context, _ *Task) (*completeRequest, error) {
		<-ctx.Done() // simulate an analysis stuck mid-run
		return nil, ctx.Err()
	})
	v := waitDone(t, mustSubmit(t, s, testRequest(testSrc)))
	if v.State != JobFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("timed-out job: %+v", v)
	}
	// Each attempt timed out on its own and was retried up to the bound.
	if v.Attempts != 3 || v.Redispatches != 2 {
		t.Errorf("attempts %d, redispatches %d, want 3 and 2", v.Attempts, v.Redispatches)
	}
	// Errors are not cached: a later identical request retries.
	if st := s.CacheStats(); st.Entries != 0 {
		t.Errorf("failed result was cached: %+v", st)
	}
}

func TestCloseCancelsInflightJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	running := make(chan struct{})
	stubAnalysis(s, func(ctx context.Context, _ *Task) (*completeRequest, error) {
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	j := mustSubmit(t, s, testRequest(testSrc))
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain budget already exhausted: force cancellation
	if err := s.Close(ctx); err != context.Canceled {
		t.Fatalf("Close = %v", err)
	}
	if v := waitDone(t, j); v.State != JobCanceled {
		t.Fatalf("job after forced close: %+v", v)
	}
}

func TestGracefulDrainFinishesQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	stubAnalysis(s, func(context.Context, *Task) (*completeRequest, error) {
		time.Sleep(10 * time.Millisecond)
		return emptyResult(), nil
	})
	jobs := make([]*Job, 0, 6)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mustSubmit(t, s, testRequest(srcVariant(i))))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	for _, j := range jobs {
		if v := waitDone(t, j); v.State != JobDone {
			t.Errorf("job %s drained as %s (%s)", v.ID, v.State, v.Error)
		}
	}
	if _, err := s.Submit(testRequest(testSrc), OptionsSpec{}); err != ErrClosed {
		t.Errorf("submit after close: err = %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	stubAnalysis(s, func(context.Context, *Task) (*completeRequest, error) {
		once.Do(func() { close(running) })
		<-release
		return emptyResult(), nil
	})
	mustSubmit(t, s, testRequest(srcVariant(0)))
	<-running // worker busy; queue slot free again
	mustSubmit(t, s, testRequest(srcVariant(1)))
	if _, err := s.Submit(testRequest(srcVariant(2)), OptionsSpec{}); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v", err)
	}

	// Over HTTP a full queue is 429.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if resp, _ := postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(srcVariant(3))}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue over HTTP: %d", resp.StatusCode)
	}
	close(release)
}

// --- HTTP layer ---

func postAnalyze(t *testing.T, url string, body any) (*http.Response, JobView) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, v
}

func TestHTTPAnalyzeSyncAndPoll(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Synchronous analyze.
	resp, v := postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(testSrc)})
	if resp.StatusCode != http.StatusOK || v.State != JobDone {
		t.Fatalf("sync analyze: %d %+v", resp.StatusCode, v)
	}
	if res := resultOf(t, v); len(res.Pairings) != 1 || len(res.Findings) == 0 {
		t.Fatalf("sync result: %+v", res)
	}

	// Async analyze + poll.
	wait := false
	resp, v = postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(srcVariant(1)), Wait: &wait})
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		t.Fatalf("async analyze: %d %+v", resp.StatusCode, v)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var pv JobView
		if err := json.NewDecoder(r.Body).Decode(&pv); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if pv.State == JobDone {
			if res := resultOf(t, pv); len(res.Pairings) != 1 {
				t.Fatalf("polled result: %+v", res)
			}
			break
		}
		if pv.State == JobFailed || pv.State == JobCanceled || time.Now().After(deadline) {
			t.Fatalf("poll: %+v", pv)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: %d", resp.StatusCode)
	}

	resp, _ = postAnalyze(t, srv.URL, analyzeRequest{}) // no files
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no files: %d", resp.StatusCode)
	}

	r, err := http.Get(srv.URL + "/v1/jobs/job-unknown")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", r.StatusCode)
	}

	if r, err = http.Get(srv.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %d", err, r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPDeeplyNestedSource posts a file of 10^6 nested parentheses, which
// overflowed the parser's stack and stopped the daemon: the job must end
// done with the parser's nesting diagnostic, and the daemon must still
// answer /healthz.
func TestHTTPDeeplyNestedSource(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	const n = 1_000_000
	src := "int f(void){ return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }\n"
	resp, v := postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(src)})
	if resp.StatusCode != http.StatusOK || v.State != JobDone {
		t.Fatalf("analyze: %d %+v", resp.StatusCode, v)
	}
	if res := resultOf(t, v); len(res.ParseErrors) != 1 || !strings.Contains(res.ParseErrors[0], "nesting exceeds 10000 levels; file skipped") {
		t.Errorf("parse errors %v, want the nesting diagnostic", res.ParseErrors)
	}
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the nested file: %v %v", err, r)
	}
	r.Body.Close()
}

func TestHTTPMetrics(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(testSrc)})
	postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(testSrc)}) // cache hit

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	text := string(body)
	for _, want := range []string{
		"ofence_jobs_submitted_total 2",
		"ofence_jobs_done_total 2",
		"ofence_cache_hits_total 1",
		"ofence_cache_misses_total 1",
		"ofence_cache_hit_rate 0.5",
		"ofence_queue_depth 0",
		`ofence_stage_latency_seconds_bucket{stage="analyze",le="+Inf"} 2`,
		`ofence_stage_latency_seconds_count{stage="total"} 2`,
		`ofence_stage_latency_seconds_count{stage="decode"} 2`, // one per request
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestHTTPConcurrentAnalyze is the acceptance scenario: >= 8 concurrent
// POST /v1/analyze requests — half identical, half distinct — through the
// REAL pipeline, asserting correct results, at least one cache hit for the
// duplicates, and a clean shutdown afterwards. Run under -race.
func TestHTTPConcurrentAnalyze(t *testing.T) {
	s := New(Config{Workers: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 8
	views := make([]JobView, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := testSrc // first half: identical requests
			if i >= n/2 {
				src = srcVariant(i) // second half: distinct requests
			}
			resp, v := postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(src)})
			codes[i], views[i] = resp.StatusCode, v
		}(i)
	}
	wg.Wait()

	hits := 0
	for i, v := range views {
		if codes[i] != http.StatusOK || v.State != JobDone {
			t.Fatalf("request %d: code=%d view=%+v", i, codes[i], v)
		}
		if res := resultOf(t, v); len(res.Pairings) != 1 || len(res.Findings) == 0 {
			t.Fatalf("request %d result: %+v", i, res)
		}
		if v.CacheHit {
			hits++
		}
	}
	if hits == 0 {
		t.Errorf("no cache hit among %d duplicate requests (stats %+v)", n/2, s.CacheStats())
	}
	if st := s.CacheStats(); st.Hits+st.Dedups == 0 {
		t.Errorf("cache never hit: %+v", st)
	}

	// Clean shutdown with nothing lost.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if _, err := s.Submit(testRequest(testSrc), OptionsSpec{}); err != ErrClosed {
		t.Errorf("submit after close: err = %v", err)
	}
}

func TestJobRetentionPrunesFinished(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxJobs: 2})
	stubAnalysis(s, func(context.Context, *Task) (*completeRequest, error) {
		return emptyResult(), nil
	})
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		j := mustSubmit(t, s, testRequest(srcVariant(i)))
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest finished job not pruned")
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Error("newest job pruned")
	}
}

// TestPipelineStageMetrics asserts the per-stage histogram family the obs
// tracer feeds: after one real analysis job, /metrics must expose
// ofence_stage_duration_seconds series for at least six distinct pipeline
// stages, and a cache hit must not add samples (the analyze closure never
// ran, so no spans were recorded).
func TestPipelineStageMetrics(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(testSrc)})

	fetch := func() string {
		t.Helper()
		r, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(body)
	}
	text := fetch()
	if !strings.Contains(text, "# TYPE ofence_stage_duration_seconds histogram") {
		t.Fatalf("stage-duration family missing:\n%s", text)
	}
	stages := []string{"analyze", "preprocess", "parse", "cfg", "extract", "extract.file", "pair", "check"}
	distinct := 0
	for _, stage := range stages {
		if strings.Contains(text, fmt.Sprintf(`ofence_stage_duration_seconds_count{stage=%q} 1`, stage)) {
			distinct++
		} else {
			t.Errorf("no samples for stage %q", stage)
		}
	}
	if distinct < 6 {
		t.Errorf("distinct instrumented stages = %d, want >= 6", distinct)
	}

	// A repeat of the same request is served from the cache: the pipeline
	// never runs, so per-stage counts stay at 1.
	postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest(testSrc)})
	text = fetch()
	if !strings.Contains(text, `ofence_stage_duration_seconds_count{stage="analyze"} 1`) {
		t.Error("cache hit added pipeline stage samples")
	}
}

// metricValue extracts one un-labeled metric sample from the exposition.
func metricValue(t *testing.T, s *Service, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(s.MetricsText(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func TestWarmLineageIncremental(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	reqA := &Request{Files: map[string]string{"a.c": testSrc, "b.c": srcVariant(1)}}
	first := waitDone(t, mustSubmit(t, s, reqA))
	if first.State != JobDone || len(resultOf(t, first).Pairings) != 2 {
		t.Fatalf("first job: %+v", first)
	}
	if got := metricValue(t, s, "ofence_lineage_misses_total"); got != 1 {
		t.Errorf("lineage misses = %g, want 1", got)
	}

	// Same lineage (same names), one file's content edited: warm hit, and
	// only the edited file is recomputed.
	reqB := &Request{Files: map[string]string{"a.c": testSrc, "b.c": srcVariant(2)}}
	second := waitDone(t, mustSubmit(t, s, reqB))
	if second.State != JobDone || second.CacheHit {
		t.Fatalf("second job: %+v", second)
	}
	if second.FilesReused != 1 || second.FilesRecomputed != 1 {
		t.Errorf("job view reused %d, recomputed %d, want 1 and 1", second.FilesReused, second.FilesRecomputed)
	}
	if got := metricValue(t, s, "ofence_lineage_hits_total"); got != 1 {
		t.Errorf("lineage hits = %g, want 1", got)
	}
	if got := metricValue(t, s, "ofence_files_reused_total"); got != 1 {
		t.Errorf("files reused = %g, want 1 (a.c on the second job)", got)
	}
	if got := metricValue(t, s, "ofence_files_recomputed_total"); got != 3 {
		t.Errorf("files recomputed = %g, want 3 (both cold + edited b.c)", got)
	}

	// The warm-path result must match a cold service's analysis verbatim.
	cold := newTestService(t, Config{Workers: 1, WarmLineages: -1})
	coldView := waitDone(t, mustSubmit(t, cold, reqB))
	if !bytes.Equal(second.Result, coldView.Result) {
		t.Errorf("warm result differs from cold:\n%s\nvs\n%s", second.Result, coldView.Result)
	}
}

func TestWarmLineageEviction(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, WarmLineages: 1})
	waitDone(t, mustSubmit(t, s, &Request{Files: map[string]string{"a.c": testSrc}}))
	waitDone(t, mustSubmit(t, s, &Request{Files: map[string]string{"b.c": srcVariant(1)}}))
	if got := s.WarmLineages(); got != 1 {
		t.Errorf("warm lineages = %d, want 1", got)
	}
	if got := metricValue(t, s, "ofence_lineage_evictions_total"); got != 1 {
		t.Errorf("lineage evictions = %g, want 1", got)
	}
	if got := metricValue(t, s, "ofence_warm_lineages"); got != 1 {
		t.Errorf("warm lineage gauge = %g, want 1", got)
	}
}

// TestResolveCapsWorkers: a request's worker count reaches the engine
// capped at GOMAXPROCS, so one body cannot ask the pairing and checking
// pools for 2^30 goroutines. Workers stays outside the job key.
func TestResolveCapsWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ spec, want int }{
		{0, 0},
		{1, 1},
		{gmp, gmp},
		{1 << 30, gmp},
	} {
		if got := (OptionsSpec{Workers: c.spec}).Resolve().Workers; got != c.want {
			t.Errorf("workers %d resolves to %d, want %d", c.spec, got, c.want)
		}
	}
}

// TestSubmitBoundsDepth: a depth beyond MaxDepth fails with ErrBadOptions
// (HTTP 400) before anything is queued, so the analysis never runs.
func TestSubmitBoundsDepth(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	huge := 1000000
	for name, spec := range map[string]OptionsSpec{
		"interproc_depth": {InterprocDepth: huge},
		"inline_depth":    {InlineDepth: &huge},
	} {
		if _, err := s.Submit(testRequest("int x;"), spec); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s %d: err = %v, want ErrBadOptions", name, huge, err)
		}
		resp, _ := postAnalyze(t, srv.URL, analyzeRequest{Request: *testRequest("int x;"), Options: spec})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %d over HTTP: %d, want 400", name, huge, resp.StatusCode)
		}
	}
	s.mu.Lock()
	queued, jobs := s.queued, len(s.jobs)
	s.mu.Unlock()
	if queued != 0 || jobs != 0 {
		t.Errorf("%d queued, %d jobs after rejected submissions, want none", queued, jobs)
	}
	depth := MaxDepth
	j, err := s.Submit(testRequest("int x;"), OptionsSpec{InterprocDepth: MaxDepth, InlineDepth: &depth})
	if err != nil {
		t.Fatalf("depth %d: %v", MaxDepth, err)
	}
	if v := waitDone(t, j); v.State != JobDone {
		t.Errorf("depth %d: state %s (%s)", MaxDepth, v.State, v.Error)
	}
}
