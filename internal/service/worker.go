package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/rescache"
)

// Task is one leased analysis on the wire (coordinator → worker).
type Task struct {
	ID string `json:"id"`
	Request
	Options OptionsSpec `json:"options"`
	// Attempt counts dispatches of this task (1 = first); the completion
	// echoes it, so a stale attempt cannot be mistaken for the current one
	// when both ran under the same worker ID.
	Attempt int `json:"attempt"`
	// HeartbeatMS is how often the worker must renew its lease.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// TimeoutMS bounds this attempt's wall time: the worker cancels the
	// analysis at the deadline, and the coordinator renews no lease past
	// it.
	TimeoutMS int64 `json:"task_timeout_ms,omitempty"`
}

// SpanSummary is one span of a worker's span forest: the name and wall
// time of a pipeline stage, folded into ofence_stage_duration_seconds.
type SpanSummary struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// registerRequest announces a worker to the coordinator.
type registerRequest struct {
	WorkerID string `json:"worker_id"`
}

// pollRequest asks for the next ready task.
type pollRequest struct {
	WorkerID string `json:"worker_id"`
}

// heartbeatRequest renews the worker's liveness and its task leases.
type heartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	TaskIDs  []string `json:"task_ids"`
}

// heartbeatResponse lists leases the worker no longer owns (expired and
// re-dispatched, or finished elsewhere); the worker aborts those tasks.
type heartbeatResponse struct {
	Lost []string `json:"lost,omitempty"`
}

// completeRequest reports a finished task: an error, which the coordinator
// retries elsewhere up to the attempt bound, or the result with the
// analysis's accounting.
type completeRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
	Attempt  int    `json:"attempt"`
	Error    string `json:"error,omitempty"`
	// Result is the task's ofence.ResultView as JSON, cached and served
	// byte for byte.
	Result          json.RawMessage `json:"result,omitempty"`
	FilesReused     int             `json:"files_reused"`
	FilesRecomputed int             `json:"files_recomputed"`
	// Lineage is "hit" when the worker had a warm project for the task's
	// source set, "miss" when it started one, and empty with warm reuse
	// off; Evicted counts warm lineages the lookup dropped.
	Lineage string `json:"lineage,omitempty"`
	Evicted int    `json:"evicted,omitempty"`
	// Inferred counts inferred implicit-barrier functions; Confidence
	// lists each finding's confidence score.
	Inferred   int           `json:"inferred,omitempty"`
	Confidence []float64     `json:"confidence,omitempty"`
	Spans      []SpanSummary `json:"spans,omitempty"`
}

// coordinator is what a Worker needs from the Service it works for. The
// Service implements it for its in-process workers; httpCoordinator
// implements it over the wire protocol for ofence-worker processes.
type coordinator interface {
	register(ctx context.Context, req registerRequest) error
	// lease waits briefly for a task; nil with a nil error means none.
	lease(ctx context.Context, workerID string) (*Task, error)
	heartbeat(ctx context.Context, req heartbeatRequest) (heartbeatResponse, error)
	complete(ctx context.Context, req *completeRequest) error
}

// retryPause is how long a worker waits after a failed coordinator call.
const retryPause = 200 * time.Millisecond

var workerSeq atomic.Uint64

// WorkerConfig configures an external worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8080").
	Coordinator string
	// ID names the worker (default "worker-<pid>-<n>").
	ID string
	// Token is the coordinator's AuthToken, sent as `Authorization: Bearer`
	// on every wire-protocol request.
	Token string
	// Capacity is how many tasks the worker runs concurrently (default 1).
	// The slots share one analyzer: its warm lineages.
	Capacity int
}

// Worker leases tasks from a coordinator and runs the analysis on them,
// up to its capacity at once. Each in-flight task has its own goroutine
// and heartbeat loop; the worker leases only while a slot is free, so it
// never holds a task it cannot start.
type Worker struct {
	id       string
	conn     coordinator
	capacity int

	// analyzeFn runs one task; tests replace it to inject hangs and
	// failures (a worker "killed mid-job" is one whose context dies while
	// analyzeFn blocks).
	analyzeFn func(ctx context.Context, t *Task) (*completeRequest, error)

	busy      atomic.Int64
	tasksDone atomic.Uint64
}

func newWorker(id string, conn coordinator, capacity int, an *analyzer) *Worker {
	return &Worker{id: id, conn: conn, capacity: max(capacity, 1), analyzeFn: an.analyze}
}

// NewWorker builds an external worker against cfg.Coordinator. Its warm
// lineages are its own: front-end work is shared between the worker's
// slots, not between processes.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("worker-%d-%d", os.Getpid(), workerSeq.Add(1))
	}
	conn := &httpCoordinator{base: cfg.Coordinator, token: cfg.Token, client: &http.Client{Timeout: 60 * time.Second}}
	return newWorker(cfg.ID, conn, cfg.Capacity, newAnalyzer(0))
}

// ID returns the worker's identifier.
func (w *Worker) ID() string { return w.id }

// Run registers with the coordinator and processes tasks until ctx is
// canceled. A canceled context mid-task abandons the task without
// reporting — exactly what a crashed worker looks like to the coordinator,
// whose lease machinery re-dispatches the work — but Run still waits for
// the abandoned tasks to unwind before returning.
func (w *Worker) Run(ctx context.Context) error {
	for w.conn.register(ctx, registerRequest{WorkerID: w.id}) != nil {
		if !pause(ctx) {
			return ctx.Err()
		}
	}
	sem := make(chan struct{}, w.capacity)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		t, err := w.conn.lease(ctx, w.id)
		if t == nil {
			<-sem
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil && !pause(ctx) {
				return ctx.Err()
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			w.runTask(ctx, t)
		}()
	}
}

// pause waits retryPause, or reports false if ctx ends first.
func pause(ctx context.Context) bool {
	t := time.NewTimer(retryPause)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runTask executes one leased task with a heartbeat goroutine renewing the
// lease; a heartbeat answer listing the lease as lost cancels the task,
// and the task's timeout bounds it.
func (w *Worker) runTask(ctx context.Context, t *Task) {
	w.busy.Add(1)
	defer w.busy.Add(-1)
	tctx, cancel := context.WithTimeout(ctx, time.Duration(t.TimeoutMS)*time.Millisecond)
	defer cancel()

	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ticker := time.NewTicker(max(time.Duration(t.HeartbeatMS)*time.Millisecond, time.Millisecond))
		defer ticker.Stop()
		for {
			select {
			case <-tctx.Done():
				return
			case <-ticker.C:
				resp, err := w.conn.heartbeat(tctx, heartbeatRequest{WorkerID: w.id, TaskIDs: []string{t.ID}})
				if err != nil {
					continue
				}
				for _, lost := range resp.Lost {
					if lost == t.ID {
						cancel()
						return
					}
				}
			}
		}
	}()

	out, err := w.analyzeFn(tctx, t)
	cancel()
	hbWG.Wait()
	if ctx.Err() != nil {
		// The worker itself is stopping: report nothing, let the lease lapse.
		return
	}
	if err != nil && errors.Is(tctx.Err(), context.DeadlineExceeded) {
		// Report the blown budget explicitly, so the failure charges the
		// attempt bound with a diagnosable message.
		err = fmt.Errorf("task exceeded its %dms timeout: %w", t.TimeoutMS, err)
	}
	if err != nil {
		out = &completeRequest{Error: err.Error()}
	} else {
		w.tasksDone.Add(1)
	}
	out.WorkerID, out.TaskID, out.Attempt = w.id, t.ID, t.Attempt
	// A lost completion costs only a retry: the lease lapses.
	_ = w.conn.complete(ctx, out)
}

// httpCoordinator is the coordinator seen from an external worker: the
// four calls over the /v1/fleet/* wire protocol.
type httpCoordinator struct {
	base, token string
	client      *http.Client
}

// errNoTask marks a 204 reply to a lease.
var errNoTask = errors.New("no task ready")

// post sends one wire-protocol request and decodes the reply into out
// (skipped when out is nil).
func (c *httpCoordinator) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return errNoTask
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	case out == nil:
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *httpCoordinator) register(ctx context.Context, req registerRequest) error {
	return c.post(ctx, "/v1/fleet/register", req, nil)
}

func (c *httpCoordinator) lease(ctx context.Context, workerID string) (*Task, error) {
	t := &Task{}
	switch err := c.post(ctx, "/v1/fleet/poll", pollRequest{WorkerID: workerID}, t); {
	case errors.Is(err, errNoTask):
		return nil, nil
	case err != nil:
		return nil, err
	}
	return t, nil
}

func (c *httpCoordinator) heartbeat(ctx context.Context, req heartbeatRequest) (heartbeatResponse, error) {
	var resp heartbeatResponse
	err := c.post(ctx, "/v1/fleet/heartbeat", req, &resp)
	return resp, err
}

func (c *httpCoordinator) complete(ctx context.Context, req *completeRequest) error {
	return c.post(ctx, "/v1/fleet/complete", req, nil)
}

// analyzer is a worker process's analysis state, shared by its in-flight
// slots: the warm-lineage LRU.
type analyzer struct {
	// warmN bounds warm, one per source-set lineage (same file names +
	// defines), with LRU eviction; negative disables warm reuse.
	warmN  int
	warmMu sync.Mutex
	warm   map[string]*warmProject
}

// newAnalyzer builds an analyzer. warmLineages 0 picks the default of 32.
func newAnalyzer(warmLineages int) *analyzer {
	if warmLineages == 0 {
		warmLineages = 32
	}
	return &analyzer{warmN: warmLineages, warm: map[string]*warmProject{}}
}

// analyze runs the real pipeline over a clone of the task's warm lineage
// project and reports the result JSON with the run's accounting.
func (a *analyzer) analyze(ctx context.Context, t *Task) (*completeRequest, error) {
	tracer := obs.New()
	tctx := obs.WithTracer(ctx, tracer)
	proj, warm, lineage, evicted := a.projectFor(&t.Request)
	res, err := proj.AnalyzeParallel(tctx, t.Options.Resolve())
	if err != nil {
		return nil, err
	}
	if warm != nil {
		// The analyzed clone becomes the lineage's project, so the next
		// task starts from the records this run built. Every task replaces
		// every file, so whichever concurrent clone lands last will do.
		warm.mu.Lock()
		warm.proj = proj
		warm.mu.Unlock()
	}
	v := res.View()
	blob, err := json.Marshal(&v)
	if err != nil {
		return nil, err
	}
	out := &completeRequest{
		Result:          blob,
		FilesReused:     res.Incremental.FilesReused,
		FilesRecomputed: res.Incremental.FilesRecomputed,
		Lineage:         lineage,
		Evicted:         evicted,
		Inferred:        len(v.Inferred),
	}
	for _, f := range v.Findings {
		out.Confidence = append(out.Confidence, f.Confidence)
	}
	for _, sp := range tracer.Spans() {
		if d, ok := sp.Elapsed(); ok {
			out.Spans = append(out.Spans, SpanSummary{Name: sp.Name(), DurNS: int64(d)})
		}
	}
	return out, nil
}

// warmProject is one lineage's long-lived project. mu serializes source
// swaps, the initial build and the swap to an analyzed clone; tasks analyze
// clones, never proj itself.
type warmProject struct {
	mu   sync.Mutex
	proj *ofence.Project
	used time.Time
}

// lineageKey identifies a warm project: the sorted file NAMES plus the
// defines. File contents are deliberately excluded — a lineage is an
// evolving source set, and content changes are what the incremental
// pipeline absorbs.
func lineageKey(req *Request) string {
	names := sortedNames(req.Files)
	parts := make([]string, 0, len(names)+2*len(req.Defines))
	for _, n := range names {
		parts = append(parts, "F"+n)
	}
	parts = append(parts, sortedPairs(req.Defines, "D")...)
	return string(rescache.KeyOf("lineage-v1", parts...))
}

// projectFor returns the project a task analyzes. With warm reuse enabled
// it is a clone of the request's lineage project w with the request's
// sources recorded (unchanged files keep their artifacts), and lineage
// reports "hit" or "miss" with the lineages evicted to make room;
// otherwise a fresh project and a nil w.
func (a *analyzer) projectFor(req *Request) (proj *ofence.Project, w *warmProject, lineage string, evicted int) {
	if a.warmN < 0 {
		return a.buildProject(req), nil, "", 0
	}
	key := lineageKey(req)
	a.warmMu.Lock()
	w, ok := a.warm[key]
	lineage = "hit"
	if !ok {
		lineage = "miss"
		w = &warmProject{}
		a.warm[key] = w
		for len(a.warm) > a.warmN {
			oldestKey := ""
			var oldest time.Time
			for k, cand := range a.warm {
				if k != key && (oldestKey == "" || cand.used.Before(oldest)) {
					oldestKey, oldest = k, cand.used
				}
			}
			if oldestKey == "" {
				break
			}
			delete(a.warm, oldestKey)
			evicted++
		}
	}
	w.used = time.Now()
	a.warmMu.Unlock()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.proj == nil {
		w.proj = a.buildProject(req)
	} else {
		for _, name := range sortedNames(req.Files) {
			w.proj.ReplaceSource(name, req.Files[name])
		}
	}
	return w.proj.Clone(), w, lineage, evicted
}

// buildProject records the request's sources in a new project; the task's
// analysis parses them.
func (a *analyzer) buildProject(req *Request) *ofence.Project {
	proj := ofence.NewProject()
	kernelhdr.Register(proj)
	for k, v := range req.Defines {
		proj.Define(k, v)
	}
	srcs := make([]ofence.SourceFile, 0, len(req.Files))
	for _, name := range sortedNames(req.Files) {
		srcs = append(srcs, ofence.SourceFile{Name: name, Src: req.Files[name]})
	}
	proj.AddSources(srcs)
	return proj
}

// lineages returns the number of warm projects kept.
func (a *analyzer) lineages() int {
	a.warmMu.Lock()
	defer a.warmMu.Unlock()
	return len(a.warm)
}
