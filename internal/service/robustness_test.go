package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at base, failing
// with every goroutine's stack if it is not within a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutinesReturnToBaseline: every exit path of a job — a clean
// Close, a Close whose drain deadline cancels a running job, a job
// timeout, and a lease lost to the janitor while the worker still runs —
// leaves no goroutine behind once the service is closed, with in-process
// workers and with one external worker over HTTP.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	type env struct {
		s       *Service
		setFn   func(func(context.Context, *Task) (*completeRequest, error))
		unblock chan struct{}
	}
	blockOnCtx := func(ctx context.Context, _ *Task) (*completeRequest, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, e *env)
	}{
		{"clean-close", Config{}, func(t *testing.T, e *env) {
			if v := waitDone(t, mustSubmit(t, e.s, testRequest(testSrc))); v.State != JobDone {
				t.Fatalf("job %s: %s", v.State, v.Error)
			}
			if err := e.s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		{"drain-deadline", Config{}, func(t *testing.T, e *env) {
			e.setFn(blockOnCtx)
			j := mustSubmit(t, e.s, testRequest(testSrc))
			waitLeased(t, e.s)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := e.s.Close(ctx); err != context.DeadlineExceeded {
				t.Fatalf("Close = %v", err)
			}
			if v := waitDone(t, j); v.State != JobCanceled {
				t.Fatalf("job %s after the drain deadline, want canceled", v.State)
			}
		}},
		{"job-timeout", Config{JobTimeout: 30 * time.Millisecond, MaxAttempts: 2, RetryBackoff: time.Millisecond}, func(t *testing.T, e *env) {
			e.setFn(blockOnCtx)
			if v := waitDone(t, mustSubmit(t, e.s, testRequest(testSrc))); v.State != JobFailed {
				t.Fatalf("job %s, want failed", v.State)
			}
			if err := e.s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		{"lease-lost", Config{LeaseTimeout: 90 * time.Millisecond, JobTimeout: 150 * time.Millisecond, MaxAttempts: 1}, func(t *testing.T, e *env) {
			e.setFn(func(context.Context, *Task) (*completeRequest, error) {
				<-e.unblock // deaf to cancellation: still running when the lease goes
				return emptyResult(), nil
			})
			v := waitDone(t, mustSubmit(t, e.s, testRequest(testSrc)))
			if v.State != JobFailed || !strings.Contains(v.Error, "deadline") {
				t.Fatalf("job %s: %q, want failed by the janitor", v.State, v.Error)
			}
			close(e.unblock)
			if err := e.s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, remote := range []bool{false, true} {
		for _, c := range cases {
			name := c.name + "/in-process"
			if remote {
				name = c.name + "/remote"
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := c.cfg
				e := &env{unblock: make(chan struct{})}
				var stop func()
				var srv *httptest.Server
				if remote {
					cfg.Workers, cfg.AuthToken = -1, testToken
					e.s = New(cfg)
					srv = httptest.NewServer(e.s.Handler())
					w := NewWorker(WorkerConfig{Coordinator: srv.URL, Token: testToken})
					e.setFn = func(fn func(context.Context, *Task) (*completeRequest, error)) { w.analyzeFn = fn }
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() {
						defer close(done)
						_ = w.Run(ctx)
					}()
					stop = func() { cancel(); <-done }
				} else {
					cfg.Workers = 1
					e.s = New(cfg)
					e.setFn = func(fn func(context.Context, *Task) (*completeRequest, error)) { stubAnalysis(e.s, fn) }
				}
				c.run(t, e)
				if stop != nil {
					stop()
					srv.Close()
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// FuzzHandler sends arbitrary bodies to every endpoint that takes one,
// with the worker token set: no body may panic the service or get a 5xx,
// and a body that is not JSON gets a 4xx.
func FuzzHandler(f *testing.F) {
	routes := []string{
		"/v1/analyze",
		"/v1/fleet/register",
		"/v1/fleet/poll",
		"/v1/fleet/heartbeat",
		"/v1/fleet/complete",
	}
	seed := func(route int, v any) {
		body, ok := v.(string)
		if !ok {
			b, _ := json.Marshal(v)
			body = string(b)
		}
		f.Add(uint8(route), []byte(body))
	}
	seed(0, analyzeRequest{Request: *testRequest(testSrc)})
	seed(0, analyzeRequest{Request: *testRequest(srcVariant(1)), Options: OptionsSpec{InterprocDepth: 2}})
	seed(0, "{not json")
	seed(0, "{}")
	seed(0, `{"files":{"a.c":"int x;"},"wait":false}`)
	seed(1, registerRequest{WorkerID: "w1"})
	seed(2, pollRequest{WorkerID: "w1"})
	seed(2, `{"worker_id":""}`)
	seed(3, heartbeatRequest{WorkerID: "w1", TaskIDs: []string{"task-00000001"}})
	seed(4, completeRequest{WorkerID: "w1", TaskID: "task-00000001", Attempt: 1, Error: "boom"})
	seed(4, completeRequest{WorkerID: "w1", TaskID: "task-00000002", Result: json.RawMessage(`{"sites":1}`)})
	seed(4, "blob")

	s := New(Config{
		Workers:        1,
		AuthToken:      testToken,
		MaxSourceBytes: 4 << 10,
		JobTimeout:     time.Second,
		LeaseTimeout:   300 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		// Waiting analyses and idle polls end with the request.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Authorization", "Bearer "+testToken)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(body) && rec.Code < 400 {
			t.Fatalf("POST %s with malformed body %q: status %d, want 4xx", path, body, rec.Code)
		}
	})
}
