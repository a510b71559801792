package service

// Tests of the lease machinery and external workers: re-dispatch of dead
// and hung workers, quarantine, per-attempt timeouts, the restart-surviving
// result store, the worker wire protocol and its token, and byte identity
// between in-process and external workers.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ofence/internal/corpus"
	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/rescache"
)

const testToken = "s3cret"

// corpusRequest generates a deterministic synthetic-corpus request with
// roughly n files (one pattern per file), varied by seed.
func corpusRequest(t *testing.T, n int, seed int64) *Request {
	t.Helper()
	cfg := corpus.DefaultConfig(seed)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.InitFlag:  n - 3,
		corpus.Seqcount:  2,
		corpus.Misplaced: 1,
	}
	cfg.PatternsPerFile = 1
	c := corpus.Generate(cfg)
	if len(c.Files) < n-1 {
		t.Fatalf("corpus generated %d files, want ~%d", len(c.Files), n)
	}
	return &Request{Files: c.Files}
}

// directResult analyzes req with the engine itself, outside any service,
// and returns the result JSON a worker must produce.
func directResult(t *testing.T, req *Request, spec OptionsSpec) []byte {
	t.Helper()
	p := ofence.NewProject()
	kernelhdr.Register(p)
	for k, v := range req.Defines {
		p.Define(k, v)
	}
	srcs := make([]ofence.SourceFile, 0, len(req.Files))
	for _, name := range sortedNames(req.Files) {
		srcs = append(srcs, ofence.SourceFile{Name: name, Src: req.Files[name]})
	}
	res, err := p.AnalyzeSourcesCtx(context.Background(), srcs, spec.Resolve())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.View())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// startWorker runs an in-process worker named id against s until the test
// ends; fn, when non-nil, replaces its analysis. The returned stop
// function kills it early (a crash, as far as s can tell).
func startWorker(t *testing.T, s *Service, id string, fn func(context.Context, *Task) (*completeRequest, error)) func() {
	t.Helper()
	w := newWorker(id, s, 1, s.an)
	if fn != nil {
		w.analyzeFn = fn
	}
	return runWorker(t, w)
}

// runWorker runs w until the returned stop function is called or the test
// ends, and waits for Run to return.
func runWorker(t *testing.T, w *Worker) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	stop := func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// startRemote serves s over httptest and runs one external worker with the
// given capacity against it.
func startRemote(t *testing.T, s *Service, capacity int) (*httptest.Server, *Worker) {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Token: s.cfg.AuthToken, Capacity: capacity})
	runWorker(t, w)
	return srv, w
}

// waitLeased waits until some task of s is leased.
func waitLeased(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		leased := 0
		for _, tk := range s.tasks {
			if tk.state == taskLeased {
				leased++
			}
		}
		s.mu.Unlock()
		if leased > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no task was ever leased")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetByteIdenticalToSingleProcess: a ≥32-file job produces the exact
// bytes the engine produces on its own, through in-process workers and
// through an external worker alike.
func TestFleetByteIdenticalToSingleProcess(t *testing.T) {
	req := corpusRequest(t, 40, 42)
	want := directResult(t, req, OptionsSpec{})

	local := newTestService(t, Config{Workers: 4})
	if v := waitDone(t, mustSubmit(t, local, req)); !bytes.Equal(v.Result, want) {
		t.Fatalf("in-process result diverged from the engine:\nservice: %.200s\nengine:  %.200s", v.Result, want)
	}

	remote := newTestService(t, Config{Workers: -1, AuthToken: testToken})
	startRemote(t, remote, 4)
	v := waitDone(t, mustSubmit(t, remote, req))
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("external-worker result diverged from the engine:\nservice: %.200s\nengine:  %.200s", v.Result, want)
	}
	if v.FilesRecomputed != len(req.Files) || v.Worker == "" || v.Attempts != 1 {
		t.Errorf("view: recomputed %d of %d, worker %q, attempts %d", v.FilesRecomputed, len(req.Files), v.Worker, v.Attempts)
	}
}

// TestWorkerCapacityByteIdentity drains one batch — a 40-file job plus
// eight cold ~10-file jobs pinned to one engine worker each — through
// in-process workers and through one external worker, at 1 and 4 slots.
// Every job's bytes must agree across all four runs.
func TestWorkerCapacityByteIdentity(t *testing.T) {
	reqs := []*Request{corpusRequest(t, 40, 42)}
	for i := 0; i < 8; i++ {
		reqs = append(reqs, corpusRequest(t, 10, int64(1000+i)))
	}
	spec := OptionsSpec{Workers: 1}

	run := func(slots int, remote bool) [][]byte {
		cfg := Config{Workers: slots}
		if remote {
			cfg = Config{Workers: -1, AuthToken: testToken}
		}
		s := newTestService(t, cfg)
		var w *Worker
		if remote {
			_, w = startRemote(t, s, slots)
		}
		jobs := make([]*Job, len(reqs))
		for i, req := range reqs {
			j, err := s.Submit(req, spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		out := make([][]byte, len(jobs))
		for i, j := range jobs {
			v := waitDone(t, j)
			if v.State != JobDone {
				t.Fatalf("slots=%d remote=%t job %d: %s %s", slots, remote, i, v.State, v.Error)
			}
			out[i] = v.Result
		}
		if remote && w.tasksDone.Load() != uint64(len(reqs)) {
			t.Fatalf("external worker completed %d tasks, want %d", w.tasksDone.Load(), len(reqs))
		}
		return out
	}
	want := run(1, false)
	for _, c := range []struct {
		slots  int
		remote bool
	}{{4, false}, {1, true}, {4, true}} {
		got := run(c.slots, c.remote)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("slots=%d remote=%t: job %d diverged:\n%.200s\nvs\n%.200s", c.slots, c.remote, i, got[i], want[i])
			}
		}
	}
}

// TestFleetKillMidJobRedispatch kills a worker mid-job (its context dies
// while the analysis blocks, so it stops heartbeating without reporting)
// and verifies the lease expires, the task is re-dispatched to a healthy
// worker, and the result is still byte-identical.
func TestFleetKillMidJobRedispatch(t *testing.T) {
	req := corpusRequest(t, 8, 42)
	want := directResult(t, req, OptionsSpec{})
	s := newTestService(t, Config{Workers: -1, LeaseTimeout: 250 * time.Millisecond, RetryBackoff: 20 * time.Millisecond})

	kill := startWorker(t, s, "doomed", func(ctx context.Context, _ *Task) (*completeRequest, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	j := mustSubmit(t, s, req)
	waitLeased(t, s)
	kill() // dies mid-job: no heartbeat, no completion

	startWorker(t, s, "healthy", nil)
	v := waitDone(t, j)
	if v.State != JobDone {
		t.Fatalf("job state %s after redispatch: %s", v.State, v.Error)
	}
	if v.Redispatches == 0 || v.Attempts != 2 {
		t.Fatalf("redispatches %d, attempts %d, want >0 and 2", v.Redispatches, v.Attempts)
	}
	if v.Worker != "healthy" {
		t.Fatalf("result attributed to %q", v.Worker)
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatal("post-redispatch result diverged from the engine")
	}
}

// TestFleetRestartDiskStoreServesResult: a service backed by the disk
// store computes a job once; a NEW service over the reopened store — with
// no workers at all — answers the identical submission from the store.
func TestFleetRestartDiskStoreServesResult(t *testing.T) {
	dir := t.TempDir()
	store, err := rescache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := corpusRequest(t, 8, 42)

	s := New(Config{Workers: 2, Store: store})
	first := waitDone(t, mustSubmit(t, s, req))
	if first.State != JobDone {
		t.Fatalf("first run failed: %s", first.Error)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := rescache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	s2 := newTestService(t, Config{Workers: -1, Store: store2})
	second := waitDone(t, mustSubmit(t, s2, req))
	if second.State != JobDone || !second.CacheHit {
		t.Fatalf("restarted service did not serve from the store: %s hit=%t (%s)", second.State, second.CacheHit, second.Error)
	}
	if second.FilesReused != len(req.Files) || second.FilesRecomputed != 0 {
		t.Fatalf("store-served job reused %d/%d files, recomputed %d",
			second.FilesReused, len(req.Files), second.FilesRecomputed)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatal("store-served result diverged from the computed one")
	}
	if got := metricValue(t, s2, "ofence_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %g, want 1 (the store hit)", got)
	}
}

// TestFleetQuarantineAfterMaxAttempts: a task that fails on every attempt
// is retried up to the bound and then quarantined, failing its job with a
// diagnosable error.
func TestFleetQuarantineAfterMaxAttempts(t *testing.T) {
	s := newTestService(t, Config{Workers: -1, MaxAttempts: 2, RetryBackoff: 10 * time.Millisecond})
	startWorker(t, s, "crashy", func(context.Context, *Task) (*completeRequest, error) {
		return nil, context.DeadlineExceeded
	})
	v := waitDone(t, mustSubmit(t, s, testRequest("int x;\n")))
	if v.State != JobFailed || !strings.Contains(v.Error, "quarantined") {
		t.Fatalf("job %s: %q, want failed with a quarantine error", v.State, v.Error)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", v.Attempts)
	}
	if got := metricValue(t, s, "ofence_quarantined_total"); got != 1 {
		t.Fatalf("quarantined counter = %g, want 1", got)
	}
}

// TestFleetHTTPEndToEnd exercises the real network path: an httptest
// listener serving a coordinator with no in-process workers, an external
// worker speaking HTTP to it, and a client POSTing /v1/analyze.
func TestFleetHTTPEndToEnd(t *testing.T) {
	s := newTestService(t, Config{Workers: -1, AuthToken: testToken})
	srv, _ := startRemote(t, s, 1)

	req := corpusRequest(t, 6, 42)
	resp, v := postAnalyze(t, srv.URL, analyzeRequest{Request: *req})
	if resp.StatusCode != http.StatusOK || v.State != JobDone {
		t.Fatalf("POST /v1/analyze: %d, job %s: %s", resp.StatusCode, v.State, v.Error)
	}
	if !bytes.Equal(compact(t, v.Result), directResult(t, req, OptionsSpec{})) {
		t.Fatal("result diverged from the engine")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"ofence_jobs_done_total 1",
		"ofence_tasks_dispatched_total 1",
		"ofence_lineage_misses_total 1",
		"ofence_queue_depth 0",
		"ofence_inflight_leases 0",
		"ofence_workers_alive 1",
		"ofence_workers 0",
		`ofence_stage_duration_seconds_count{stage="pair"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}
	if strings.Contains(string(raw), "ofence_store_") {
		t.Fatalf("store series without a configured Store:\n%s", raw)
	}
}

func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestJobKeySensitivity: the job key must move with anything that can
// change analysis output — file names and bytes (a comment-only edit
// included), defines, result-affecting options, and the bundled headers —
// and with nothing else.
func TestJobKeySensitivity(t *testing.T) {
	hdr := headerDigest(kernelhdr.Headers())
	base := &Request{
		Files:   map[string]string{"a.c": "int x;\n", "b.c": "int y;\n"},
		Defines: map[string]string{"CONFIG_SMP": "1"},
	}
	k := jobKey(base, OptionsSpec{}, hdr)

	same := &Request{
		Files:   map[string]string{"b.c": "int y;\n", "a.c": "int x;\n"},
		Defines: map[string]string{"CONFIG_SMP": "1"},
	}
	if jobKey(same, OptionsSpec{}, hdr) != k {
		t.Fatal("key depends on map iteration order")
	}
	if jobKey(base, OptionsSpec{Workers: 7}, hdr) != k {
		t.Fatal("key depends on the scheduling-only Workers option")
	}
	for name, req := range map[string]*Request{
		"content": {Files: map[string]string{"a.c": "int x;int z;\n", "b.c": "int y;\n"}, Defines: base.Defines},
		"comment": {Files: map[string]string{"a.c": "int x; /* c */\n", "b.c": "int y;\n"}, Defines: base.Defines},
		"rename":  {Files: map[string]string{"c.c": "int x;\n", "b.c": "int y;\n"}, Defines: base.Defines},
		"define":  {Files: base.Files, Defines: map[string]string{"CONFIG_SMP": "0"}},
	} {
		if jobKey(req, OptionsSpec{}, hdr) == k {
			t.Errorf("key ignored a %s change", name)
		}
	}
	if jobKey(base, OptionsSpec{WriteWindow: 3}, hdr) == k {
		t.Error("key ignored an options change")
	}
	if jobKey(base, OptionsSpec{MinConfidence: 0.5}, hdr) == k {
		t.Error("key ignored the confidence gate")
	}
	headers := kernelhdr.Headers()
	for name := range headers {
		headers[name] += "\n#define OFENCE_EDITED 1\n"
		break
	}
	if jobKey(base, OptionsSpec{}, headerDigest(headers)) == k {
		t.Error("key ignored a change of the bundled headers")
	}
}

// TestCompleteAfterDrainFailureNoPanic: when Close's drain deadline
// expires, the job is canceled while its task may still be leased. A
// worker completing just afterwards must neither panic nor resurrect the
// canceled job.
func TestCompleteAfterDrainFailureNoPanic(t *testing.T) {
	s := New(Config{Workers: -1})
	j := mustSubmit(t, s, testRequest("int x;\n"))
	leased, err := s.lease(context.Background(), "w1")
	if err != nil || leased == nil {
		t.Fatalf("no task leased: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain budget already spent: Close cancels every pending job
	if err := s.Close(ctx); err != context.Canceled {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	if v := waitDone(t, j); v.State != JobCanceled {
		t.Fatalf("job state %s after the drain deadline, want canceled", v.State)
	}

	_ = s.complete(context.Background(), &completeRequest{
		WorkerID: "w1",
		TaskID:   leased.ID,
		Result:   json.RawMessage(`{"late":true}`),
	})
	v := j.View()
	if v.State != JobCanceled || len(v.Result) != 0 {
		t.Fatalf("late completion resurrected a canceled job: %s %s", v.State, v.Result)
	}
}

// TestCoordinatorSubmitValidation: a service with only external workers
// keeps the submit contract, and a service still draining a pending job
// refuses new work.
func TestCoordinatorSubmitValidation(t *testing.T) {
	s := New(Config{Workers: -1, MaxSourceBytes: 64})
	if _, err := s.Submit(&Request{}, OptionsSpec{}); err != ErrNoFiles {
		t.Fatalf("empty submit: %v", err)
	}
	big := &Request{Files: map[string]string{"a.c": strings.Repeat("x", 100)}}
	if _, err := s.Submit(big, OptionsSpec{}); err != ErrTooLarge {
		t.Fatalf("oversized submit: %v", err)
	}
	// No worker leases this job, so Close stays in its drain until the
	// deadline cancels it.
	pending := mustSubmit(t, s, testRequest("int x;\n"))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	for draining := false; !draining; {
		s.mu.Lock()
		draining = s.closed
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(testRequest("int y;\n"), OptionsSpec{}); err != ErrClosed {
		t.Fatalf("submit while draining: %v", err)
	}
	if err := <-closed; err != context.DeadlineExceeded {
		t.Fatalf("Close = %v, want the drain deadline", err)
	}
	if v := waitDone(t, pending); v.State != JobCanceled {
		t.Fatalf("pending job state %s after the drain deadline, want canceled", v.State)
	}
}

// TestRetryBackoffClamp: a large attempt count must produce a positive,
// capped re-dispatch delay — never a negative (immediate, hot-looping) one
// from shift overflow.
func TestRetryBackoffClamp(t *testing.T) {
	for _, attempt := range []int{1, 40, 100, 1 << 19} {
		d := retryDelay(500*time.Millisecond, attempt)
		if d <= 0 || d > maxRetryBackoff {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, maxRetryBackoff)
		}
	}
	if d := retryDelay(500*time.Millisecond, 2); d != time.Second {
		t.Fatalf("attempt 2: backoff %v, want 1s", d)
	}
}

// TestTaskTimeoutQuarantinesHungTask: a worker whose analysis hangs (but
// honors cancellation) fails each attempt at the task timeout instead of
// pinning the job, and the job quarantines after the attempt bound with a
// diagnosable error.
func TestTaskTimeoutQuarantinesHungTask(t *testing.T) {
	s := newTestService(t, Config{
		Workers:      -1,
		JobTimeout:   150 * time.Millisecond,
		MaxAttempts:  2,
		RetryBackoff: 10 * time.Millisecond,
	})
	startWorker(t, s, "sleepy", func(ctx context.Context, _ *Task) (*completeRequest, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	v := waitDone(t, mustSubmit(t, s, testRequest("int x;\n")))
	if v.State != JobFailed || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("job %s: %q, want failed with a timeout error", v.State, v.Error)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", v.Attempts)
	}
}

// TestTaskTimeoutReapsHeartbeatingHungWorker: a worker stuck in an
// analysis that ignores cancellation keeps heartbeating, but no heartbeat
// renews a lease past the task timeout: the janitor expires it there and
// a healthy worker finishes the job.
func TestTaskTimeoutReapsHeartbeatingHungWorker(t *testing.T) {
	s := newTestService(t, Config{
		Workers:      -1,
		LeaseTimeout: 250 * time.Millisecond,
		JobTimeout:   time.Second,
		RetryBackoff: 10 * time.Millisecond,
		MaxAttempts:  5,
	})
	unblock := make(chan struct{})
	startWorker(t, s, "hog", func(context.Context, *Task) (*completeRequest, error) {
		<-unblock // hung, deaf to cancellation
		return nil, context.Canceled
	})
	t.Cleanup(func() { close(unblock) }) // runs before the worker's stop

	j := mustSubmit(t, s, corpusRequest(t, 6, 42))
	waitLeased(t, s)
	startWorker(t, s, "healthy", nil)

	v := waitDone(t, j)
	if v.State != JobDone {
		t.Fatalf("job state %s: %s", v.State, v.Error)
	}
	if v.Redispatches == 0 || v.Worker != "healthy" {
		t.Fatalf("hung worker never reaped: redispatches %d, worker %q", v.Redispatches, v.Worker)
	}
}

// TestFleetAuthToken: with Config.AuthToken set, the worker-facing
// endpoints demand the bearer token while the client API stays open, and
// a worker carrying the token completes jobs. Without a token the worker
// endpoints do not exist.
func TestFleetAuthToken(t *testing.T) {
	open := newTestService(t, Config{Workers: -1})
	osrv := httptest.NewServer(open.Handler())
	defer osrv.Close()
	for _, path := range []string{"/v1/fleet/register", "/v1/fleet/poll", "/v1/fleet/heartbeat", "/v1/fleet/complete"} {
		resp, err := http.Post(osrv.URL+path, "application/json", strings.NewReader(`{"worker_id":"w"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s without a configured token: %d, want 404", path, resp.StatusCode)
		}
	}

	s := newTestService(t, Config{Workers: -1, AuthToken: testToken})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/fleet/poll", "application/json", strings.NewReader(`{"worker_id":"intruder"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated poll: status %d, want 401", resp.StatusCode)
	}
	if resp, err = http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth: %v", err)
	}
	resp.Body.Close()

	// An external worker carrying the token completes jobs end to end.
	startRemote(t, s, 1)
	if v := waitDone(t, mustSubmit(t, s, corpusRequest(t, 6, 42))); v.State != JobDone {
		t.Fatalf("authed job state %s: %s", v.State, v.Error)
	}
}

// TestLongPollWakesOnSubmit: an idle lease returns as soon as a task is
// queued rather than at its idle deadline, for direct callers and the
// HTTP poll alike.
func TestLongPollWakesOnSubmit(t *testing.T) {
	s := newTestService(t, Config{Workers: -1, AuthToken: testToken, LeaseTimeout: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	conn := &httpCoordinator{base: srv.URL, token: testToken, client: srv.Client()}

	var wg sync.WaitGroup
	got := make([]*Task, 2)
	for i, c := range []coordinator{s, conn} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.lease(context.Background(), "poller")
		}()
	}
	time.Sleep(50 * time.Millisecond) // both leases are waiting
	start := time.Now()
	mustSubmit(t, s, testRequest("int x;\n"))
	mustSubmit(t, s, testRequest("int y;\n"))
	wg.Wait()
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("leases returned after %v: not woken by the submits", waited)
	}
	if got[0] == nil || got[1] == nil || got[0].ID == got[1].ID {
		t.Fatalf("leased tasks %+v, %+v: want two distinct tasks", got[0], got[1])
	}
	for _, tk := range got {
		_ = s.complete(context.Background(), &completeRequest{WorkerID: "poller", TaskID: tk.ID, Result: json.RawMessage(`{}`)})
	}
}
