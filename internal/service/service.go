// Package service is the analysis job engine behind ofence-serve and
// ofence-worker. A Service is a coordinator with one job table, one lease
// queue, one result tier and one metric catalog:
//
//   - Every job is keyed on its raw content (file names and bytes, defines,
//     the bundled kernel headers and the options fingerprint). A repeat is
//     answered from a content-addressed result cache (internal/rescache),
//     identical in-flight jobs share one analysis, and an optional artifact
//     store behind the cache keeps results across restarts.
//   - Every other job becomes a task on the lease queue. Workers lease
//     tasks, heartbeat while they analyze, and report the result as JSON. A
//     lease that lapses (dead, hung or partitioned worker) is re-dispatched
//     with backoff; a task that keeps failing is quarantined and fails its
//     job.
//   - Workers run one loop in two places. The Service's in-process workers
//     call it directly; ofence-worker processes make the same four calls
//     (register, lease, heartbeat, complete) over HTTP/JSON. Either kind
//     keeps warm per-lineage projects, so a one-file edit of a known source
//     set re-runs the per-file stages for that file only.
//
// The HTTP API, wire protocol, lease semantics and security model are in
// docs/SERVICE.md.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/rescache"
)

// Sentinel errors surfaced to API clients.
var (
	ErrQueueFull = errors.New("analysis queue is full")
	ErrClosed    = errors.New("service is draining")
	ErrNoFiles   = errors.New("request has no source files")
	ErrTooLarge  = errors.New("request exceeds the source size limit")
)

// Request is one analysis submission: a set of named C sources plus
// optional preprocessor defines (kernel config symbols). The bundled
// miniature kernel include tree is always available to #include.
type Request struct {
	Files   map[string]string `json:"files"`
	Defines map[string]string `json:"defines,omitempty"`
}

// OptionsSpec is the wire form of the analysis options; zero fields keep
// the paper's defaults.
type OptionsSpec struct {
	WriteWindow      int  `json:"write_window,omitempty"`
	ReadWindow       int  `json:"read_window,omitempty"`
	InlineDepth      *int `json:"inline_depth,omitempty"`
	InterprocDepth   int  `json:"interproc_depth,omitempty"`
	MinSharedObjects int  `json:"min_shared_objects,omitempty"`
	CheckOnce        bool `json:"check_once,omitempty"`
	Workers          int  `json:"workers,omitempty"`
	// MinConfidence gates findings by the ranking pass's score
	// (internal/rank); 0 keeps every finding. Folded into the job key:
	// gated and ungated results never alias.
	MinConfidence float64 `json:"min_confidence,omitempty"`
}

// Resolve maps the spec onto the engine options. A request's worker count
// is capped at GOMAXPROCS: more goroutines than cores only add scheduling
// work, and the value comes from an untrusted body.
func (o OptionsSpec) Resolve() ofence.Options {
	opts := ofence.DefaultOptions()
	if o.WriteWindow > 0 {
		opts.Access.WriteWindow = o.WriteWindow
	}
	if o.ReadWindow > 0 {
		opts.Access.ReadWindow = o.ReadWindow
	}
	if o.InlineDepth != nil {
		opts.Access.InlineDepth = *o.InlineDepth
	}
	if o.InterprocDepth > 0 {
		opts.InterprocDepth = o.InterprocDepth
	}
	if o.MinSharedObjects > 0 {
		opts.MinSharedObjects = o.MinSharedObjects
	}
	opts.CheckOnce = o.CheckOnce
	if o.Workers > 0 {
		opts.Workers = min(o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.MinConfidence > 0 {
		opts.MinConfidence = o.MinConfidence
	}
	return opts
}

// headerDigest condenses an include tree into one key part, so a binary
// whose bundled headers changed never serves results computed against the
// old ones from a durable store.
func headerDigest(headers map[string]string) string {
	return string(rescache.KeyOf("headers-v1", sortedPairs(headers, "H")...))
}

// jobKey is the job's content address: the options fingerprint, the
// header digest, and the sorted file names with their raw contents and
// defines. Raw-content keying is conservative — any byte change re-keys,
// including a comment-only edit — and costs one hash pass instead of a
// preprocessor run per file. Workers is excluded by the fingerprint: it
// changes scheduling, never output.
func jobKey(req *Request, spec OptionsSpec, headers string) rescache.Key {
	parts := append(sortedPairs(req.Files, "F"), sortedPairs(req.Defines, "D")...)
	return rescache.KeyOf("result-v2|"+headers+"|"+spec.Resolve().Fingerprint(), parts...)
}

// sortedPairs flattens m into tag+key, value pairs in key order.
func sortedPairs(m map[string]string, tag string) []string {
	out := make([]string, 0, 2*len(m))
	for _, k := range sortedNames(m) {
		out = append(out, tag+k, m[k])
	}
	return out
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// blobCodec stores result blobs as they are: the cache's values are the
// result JSON the worker produced.
var blobCodec = rescache.Codec{
	Encode: func(v any) ([]byte, error) { return v.([]byte), nil },
	Decode: func(blob []byte) (any, error) { return blob, nil },
}

// JobState is the lifecycle of a job.
type JobState string

// Job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one tracked analysis. Its mutable fields are guarded by the
// Service mutex; Done is closed exactly once, when the job reaches a
// terminal state.
type Job struct {
	id   string
	s    *Service
	req  *Request
	spec OptionsSpec
	key  rescache.Key
	done chan struct{}

	state      JobState
	cacheHit   bool
	errMsg     string
	result     json.RawMessage
	reused     int
	recomputed int
	worker     string
	task       *task // the job's analysis task; nil when the cache answered
	submitted  time.Time
	hashDur    time.Duration
	started    time.Time // leased, or the cache lookup began
	finished   time.Time
}

// terminal reports whether the job has finished. Caller holds s.mu.
func (j *Job) terminal() bool {
	return j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the JSON projection of a job.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	CacheHit bool     `json:"cache_hit"`
	Error    string   `json:"error,omitempty"`
	// Result is the analysis result exactly as the worker (or the store)
	// produced it: an ofence.ResultView in JSON.
	Result json.RawMessage `json:"result,omitempty"`
	// FilesReused/FilesRecomputed report how much per-file work the
	// analysis served from the stage caches; a cached result reuses every
	// file.
	FilesReused     int `json:"files_reused"`
	FilesRecomputed int `json:"files_recomputed"`
	// Redispatches counts leases lost to dead, stuck or failing workers;
	// Attempts counts dispatches of the job's task.
	Redispatches int     `json:"redispatches"`
	Attempts     int     `json:"attempts"`
	Worker       string  `json:"worker,omitempty"`
	WaitMS       float64 `json:"wait_ms"`
	HashMS       float64 `json:"hash_ms"`
	AnalyzeMS    float64 `json:"analyze_ms"`
	TotalMS      float64 `json:"total_ms"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	v := JobView{
		ID:              j.id,
		State:           j.state,
		CacheHit:        j.cacheHit,
		Error:           j.errMsg,
		Result:          j.result,
		FilesReused:     j.reused,
		FilesRecomputed: j.recomputed,
		Worker:          j.worker,
		HashMS:          ms(j.hashDur),
	}
	if t := j.task; t != nil {
		v.Redispatches, v.Attempts = t.redispatches, t.attempt
	}
	if !j.started.IsZero() {
		v.WaitMS = ms(j.started.Sub(j.submitted) - j.hashDur)
	}
	if !j.finished.IsZero() {
		v.AnalyzeMS = ms(j.finished.Sub(j.started))
		v.TotalMS = ms(j.finished.Sub(j.submitted))
	}
	return v
}

// Config sizes the service. Zero fields pick the defaults noted per field.
type Config struct {
	// Workers is the number of in-process analysis slots (default
	// GOMAXPROCS). A negative value runs none: the service then only
	// coordinates external ofence-worker processes.
	Workers int
	// QueueDepth bounds queued jobs — submitted, and neither leased to a
	// worker nor answered from the cache (default 64); beyond it Submit
	// fails with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (default 256).
	CacheEntries int
	// JobTimeout bounds one analysis attempt (default 30s). The worker
	// cancels the attempt at the deadline and the coordinator renews no
	// lease past it; the task is then retried, up to MaxAttempts.
	JobTimeout time.Duration
	// MaxSourceBytes bounds the total source size of one request
	// (default 8 MiB).
	MaxSourceBytes int
	// MaxJobs bounds how many finished jobs stay queryable (default 1024);
	// the oldest finished jobs are forgotten first.
	MaxJobs int
	// WarmLineages bounds the in-process workers' warm projects, one per
	// source-set lineage (same file names + defines), so repeat
	// submissions re-analyze incrementally (default 32; negative builds a
	// fresh project per task).
	WarmLineages int
	// Store is an optional artifact tier behind the result cache: results
	// a previous incarnation stored are hits. nil keeps the cache
	// memory-only. The service does not close it.
	Store rescache.ArtifactStore
	// LeaseTimeout is how long a leased task may go without a heartbeat
	// before it is re-dispatched (default 15s). Workers heartbeat every
	// LeaseTimeout/3; a worker silent for LeaseTimeout is dropped.
	LeaseTimeout time.Duration
	// MaxAttempts bounds dispatches of one task; beyond it the task is
	// quarantined and its job fails (default 3).
	MaxAttempts int
	// RetryBackoff delays re-dispatch attempt n by RetryBackoff·2^(n-1),
	// capped at one minute (default 500ms).
	RetryBackoff time.Duration
	// AuthToken is the shared secret external workers present as
	// `Authorization: Bearer <token>`. The worker endpoints (/v1/fleet/*)
	// are mounted only when it is set; without it they do not exist (404).
	AuthToken string
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 8 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.WarmLineages == 0 {
		c.WarmLineages = 32
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 15 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	return c
}

// Service is the coordinator: it owns the job table, the lease queue, the
// result cache and the metrics, and runs the in-process workers. Create
// with New, stop with Close.
type Service struct {
	cfg     Config
	headers string // headerDigest of the bundled kernel headers
	cache   *rescache.Cache
	an      *analyzer // the in-process workers' analyzer
	local   *Worker   // the in-process workers; nil when cfg.Workers < 0
	met     *metrics

	mu       sync.Mutex
	closed   bool // draining: Submit fails with ErrClosed
	canceled bool // the drain deadline passed: no task is dispatched
	jobs     map[string]*Job
	order    []string
	nextJob  uint64
	queued   int              // jobs in JobQueued, bounded by cfg.QueueDepth
	tasks    map[string]*task // live tasks: queued or leased
	queue    []*task          // ready order; finished entries are skipped
	wake     chan struct{}    // closed and replaced whenever a task is queued
	nextTask uint64
	workers  map[string]*workerState

	// ctx is canceled when Close finishes (or its deadline passes); the
	// in-process workers, the janitor and every waiting lease end with it.
	ctx    context.Context
	cancel context.CancelFunc
	jobsWG sync.WaitGroup // one per job until it is terminal
	bg     sync.WaitGroup // janitor and in-process workers
}

// New starts a service: the lease janitor and cfg.Workers in-process
// analysis slots.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		headers: headerDigest(kernelhdr.Headers()),
		cache:   rescache.New(cfg.CacheEntries),
		an:      newAnalyzer(cfg.WarmLineages),
		met:     newMetrics(),
		jobs:    map[string]*Job{},
		tasks:   map[string]*task{},
		wake:    make(chan struct{}),
		workers: map[string]*workerState{},
		ctx:     ctx,
		cancel:  cancel,
	}
	if cfg.Store != nil {
		s.cache.AttachStore(cfg.Store, blobCodec)
	}
	s.bg.Add(1)
	go s.janitor()
	if cfg.Workers > 0 {
		s.local = newWorker("local", s, cfg.Workers, s.an)
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			_ = s.local.Run(ctx)
		}()
	}
	return s
}

// Submit validates a request and starts its job. It never blocks: a full
// queue fails fast with ErrQueueFull, a draining service with ErrClosed.
func (s *Service) Submit(req *Request, spec OptionsSpec) (*Job, error) {
	if len(req.Files) == 0 {
		return nil, ErrNoFiles
	}
	total := 0
	for name, src := range req.Files {
		total += len(name) + len(src)
	}
	if total > s.cfg.MaxSourceBytes {
		return nil, ErrTooLarge
	}
	start := time.Now()
	key := jobKey(req, spec, s.headers)
	hash := time.Since(start)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.count(&s.met.queueRejected)
		return nil, ErrQueueFull
	}
	s.nextJob++
	j := &Job{
		id:        fmt.Sprintf("job-%08d", s.nextJob),
		s:         s,
		req:       req,
		spec:      spec,
		key:       key,
		done:      make(chan struct{}),
		state:     JobQueued,
		submitted: start,
		hashDur:   hash,
	}
	s.queued++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	s.jobsWG.Add(1)
	s.mu.Unlock()
	s.met.count(&s.met.jobsSubmitted)
	s.met.stage("hash").observe(hash)
	go s.resolve(j)
	return j, nil
}

// resolve answers j from the result cache, joins an identical in-flight
// job, or dispatches j's task and waits for its result.
func (s *Service) resolve(j *Job) {
	defer s.jobsWG.Done()
	start := time.Now()
	v, hit, err := s.cache.Do(j.key, func() (any, error) { return s.dispatch(j) })

	s.mu.Lock()
	if j.state == JobQueued {
		s.queued--
	}
	if j.started.IsZero() {
		j.started = start
	}
	j.finished = time.Now()
	j.cacheHit = hit
	switch {
	case err == nil:
		j.state = JobDone
		j.result = v.([]byte)
		if hit {
			j.reused = len(j.req.Files)
		}
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.errMsg = err.Error()
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
	}
	state := j.state
	wait, analyze, total := j.started.Sub(j.submitted)-j.hashDur, j.finished.Sub(j.started), j.finished.Sub(j.submitted)
	s.mu.Unlock()

	s.met.stage("wait").observe(wait)
	s.met.stage("analyze").observe(analyze)
	s.met.stage("total").observe(total)
	switch state {
	case JobDone:
		s.met.count(&s.met.jobsDone)
	case JobCanceled:
		s.met.count(&s.met.jobsCanceled)
	default:
		s.met.count(&s.met.jobsFailed)
	}
	close(j.done)
}

// dispatch queues j's analysis task and waits until a worker completes
// it, it is quarantined, or the drain deadline cancels it.
func (s *Service) dispatch(j *Job) (any, error) {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return nil, context.Canceled
	}
	t := s.newTaskLocked(j)
	j.task = t
	s.mu.Unlock()
	<-t.done
	if t.err != nil {
		return nil, t.err
	}
	return []byte(t.result), nil
}

// pruneLocked forgets the oldest finished jobs beyond the retention bound.
// Caller holds s.mu.
func (s *Service) pruneLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		i := 0
		for i < len(s.order) && !s.jobs[s.order[i]].terminal() {
			i++
		}
		if i == len(s.order) {
			return // everything retained is still live
		}
		delete(s.jobs, s.order[i])
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Close drains the service: no new submissions are accepted, and queued
// and running jobs finish — workers keep leasing until the last one is
// done. If ctx expires first, every unfinished job is canceled, running
// in-process analyses abort at their next cancellation point, and ctx's
// error is returned. Close returns once the in-process workers and the
// janitor have exited.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		s.mu.Lock()
		s.canceled = true
		for _, t := range s.tasks {
			s.finishTaskLocked(t, nil, context.Canceled)
		}
		s.mu.Unlock()
		<-drained
	}
	s.cancel()
	s.bg.Wait()
	return err
}

// CacheStats snapshots the result-cache counters. A miss is a job that
// ran an analysis.
func (s *Service) CacheStats() rescache.Stats { return s.cache.Stats() }

// StageStats snapshots the in-process workers' per-file stage cache
// counters, keyed by stage name.
func (s *Service) StageStats() map[string]rescache.Stats { return s.an.stages.Stats() }

// WarmLineages returns the number of warm projects the in-process workers
// keep.
func (s *Service) WarmLineages() int { return s.an.lineages() }
