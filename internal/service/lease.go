package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// taskState is the lifecycle of a dispatched task.
type taskState int

const (
	taskQueued taskState = iota
	taskLeased
	taskFinished
)

// Re-dispatch backoff bounds: the shift exponent is capped so it cannot
// overflow, and the delay itself is capped so a misconfigured service
// degrades to a fixed worst-case wait instead of a negative (immediate)
// one.
const (
	maxBackoffShift = 16
	maxRetryBackoff = time.Minute
)

// task is one job's analysis on the lease queue. Its fields are guarded by
// the Service mutex; done is closed when it finishes with result or err.
type task struct {
	id   string
	job  *Job
	done chan struct{}

	state        taskState
	attempt      int // dispatches so far
	redispatches int
	notBefore    time.Time
	worker       string
	// leaseDeadline is renewed by heartbeats, but never past taskDeadline,
	// the current attempt's wall-time bound: a live-but-hung worker is
	// reaped by the janitor like a dead one.
	leaseDeadline time.Time
	taskDeadline  time.Time

	result json.RawMessage
	err    error
}

// workerState tracks one registered worker's liveness and leases.
type workerState struct {
	lastSeen time.Time
	leases   map[string]bool
	lost     []string // leases expired away from it, reported on its next heartbeat
}

// heartbeatEvery is the lease-renewal cadence workers follow. It is also
// how long an idle lease call waits, so an idle worker checks in as often
// as a busy one.
func (s *Service) heartbeatEvery() time.Duration { return s.cfg.LeaseTimeout / 3 }

// newTaskLocked creates j's task and queues it. Caller holds s.mu.
func (s *Service) newTaskLocked(j *Job) *task {
	s.nextTask++
	t := &task{id: fmt.Sprintf("task-%08d", s.nextTask), job: j, done: make(chan struct{})}
	s.tasks[t.id] = t
	s.enqueueLocked(t, time.Time{})
	return t
}

// enqueueLocked appends t to the ready queue and wakes waiting leases.
// Caller holds s.mu.
func (s *Service) enqueueLocked(t *task, notBefore time.Time) {
	t.state = taskQueued
	t.worker = ""
	t.notBefore = notBefore
	s.queue = append(s.queue, t)
	close(s.wake)
	s.wake = make(chan struct{})
}

// finishTaskLocked ends t with its result or error and releases the job
// waiting on it. Caller holds s.mu.
func (s *Service) finishTaskLocked(t *task, result json.RawMessage, err error) {
	if w := s.workers[t.worker]; w != nil {
		delete(w.leases, t.id)
	}
	t.state = taskFinished
	t.result, t.err = result, err
	delete(s.tasks, t.id)
	close(t.done)
}

// touchWorkerLocked marks a worker alive. Caller holds s.mu.
func (s *Service) touchWorkerLocked(id string) *workerState {
	w, ok := s.workers[id]
	if !ok {
		w = &workerState{leases: map[string]bool{}}
		s.workers[id] = w
	}
	w.lastSeen = time.Now()
	return w
}

// register records (or refreshes) a worker.
func (s *Service) register(_ context.Context, req registerRequest) error {
	s.mu.Lock()
	s.touchWorkerLocked(req.WorkerID)
	s.mu.Unlock()
	return nil
}

// lease hands the next ready task to workerID. It waits until a task is
// queued, ctx ends, or one heartbeat interval passes; a nil task with a
// nil error means nothing was ready. It fails with ErrClosed once the
// service has shut down.
func (s *Service) lease(ctx context.Context, workerID string) (*Task, error) {
	idle := time.NewTimer(s.heartbeatEvery())
	defer idle.Stop()
	for {
		now := time.Now()
		s.mu.Lock()
		t, retryAt := s.pickLocked(workerID, now)
		wake := s.wake
		s.mu.Unlock()
		if t != nil {
			return t, nil
		}
		var rt *time.Timer
		var retry <-chan time.Time
		if !retryAt.IsZero() {
			rt = time.NewTimer(retryAt.Sub(now))
			retry = rt.C
		}
		var err error
		stop := false
		select {
		case <-wake:
		case <-retry:
		case <-idle.C:
			stop = true
		case <-ctx.Done():
			stop = true
		case <-s.ctx.Done():
			stop, err = true, ErrClosed
		}
		if rt != nil {
			rt.Stop()
		}
		if stop {
			return nil, err
		}
	}
}

// pickLocked leases the first ready task to workerID. With none ready it
// returns the earliest time a backed-off task becomes ready (zero if
// none). Caller holds s.mu.
func (s *Service) pickLocked(workerID string, now time.Time) (*Task, time.Time) {
	w := s.touchWorkerLocked(workerID)
	live := s.queue[:0]
	var picked *task
	var retryAt time.Time
	for _, t := range s.queue {
		if t.state != taskQueued {
			continue // finished or leased since it was queued
		}
		if picked == nil && !now.Before(t.notBefore) {
			picked = t
			continue
		}
		if now.Before(t.notBefore) && (retryAt.IsZero() || t.notBefore.Before(retryAt)) {
			retryAt = t.notBefore
		}
		live = append(live, t)
	}
	clear(s.queue[len(live):])
	s.queue = live
	if picked == nil {
		return nil, retryAt
	}
	t := picked
	t.state = taskLeased
	t.worker = workerID
	t.attempt++
	t.taskDeadline = now.Add(s.cfg.JobTimeout)
	t.leaseDeadline = s.leaseExpiryLocked(t, now)
	w.leases[t.id] = true
	j := t.job
	if j.state == JobQueued {
		s.queued--
		j.state = JobRunning
		j.started = now
	}
	j.worker = workerID
	s.met.count(&s.met.tasksDispatched)
	return &Task{
		ID:          t.id,
		Request:     *j.req,
		Options:     j.spec,
		Attempt:     t.attempt,
		HeartbeatMS: s.heartbeatEvery().Milliseconds(),
		TimeoutMS:   s.cfg.JobTimeout.Milliseconds(),
	}, time.Time{}
}

// leaseExpiryLocked is now + LeaseTimeout, capped at the attempt's
// wall-time deadline. Caller holds s.mu.
func (s *Service) leaseExpiryLocked(t *task, now time.Time) time.Time {
	exp := now.Add(s.cfg.LeaseTimeout)
	if exp.After(t.taskDeadline) {
		exp = t.taskDeadline
	}
	return exp
}

// heartbeat renews the worker's liveness and its leases, and reports back
// the leases it no longer owns.
func (s *Service) heartbeat(_ context.Context, req heartbeatRequest) (heartbeatResponse, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.touchWorkerLocked(req.WorkerID)
	s.met.count(&s.met.heartbeats)
	lost := w.lost
	w.lost = nil
	for _, id := range req.TaskIDs {
		t, ok := s.tasks[id]
		if !ok || t.state != taskLeased || t.worker != req.WorkerID {
			lost = append(lost, id)
			continue
		}
		t.leaseDeadline = s.leaseExpiryLocked(t, now)
	}
	return heartbeatResponse{Lost: lost}, nil
}

// complete records a finished task. An error from the current attempt
// charges it; a success is accepted from any holder while the task
// is live — the analysis is deterministic, so a late result from an
// expired lease is byte for byte the result.
func (s *Service) complete(_ context.Context, req *completeRequest) error {
	s.mu.Lock()
	if w := s.workers[req.WorkerID]; w != nil {
		delete(w.leases, req.TaskID)
	}
	t, ok := s.tasks[req.TaskID]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	if req.Error != "" {
		if t.state == taskLeased && t.worker == req.WorkerID && t.attempt == req.Attempt {
			s.retryLocked(t, fmt.Sprintf("worker %s: %s", req.WorkerID, req.Error))
		}
		s.mu.Unlock()
		return nil
	}
	j := t.job
	j.worker, j.reused, j.recomputed = req.WorkerID, req.FilesReused, req.FilesRecomputed
	// Fold before the job can finish, so its reply never precedes its
	// metrics.
	s.met.fold(req)
	s.finishTaskLocked(t, req.Result, nil)
	s.mu.Unlock()
	return nil
}

// retryLocked re-queues a failed or expired task with exponential backoff,
// or quarantines it past the attempt bound, failing its job. Caller holds
// s.mu.
func (s *Service) retryLocked(t *task, cause string) {
	if t.attempt >= s.cfg.MaxAttempts {
		s.met.count(&s.met.quarantined)
		s.finishTaskLocked(t, nil, fmt.Errorf("quarantined after %d attempts: %s", t.attempt, cause))
		return
	}
	if w := s.workers[t.worker]; w != nil {
		delete(w.leases, t.id)
	}
	s.enqueueLocked(t, time.Now().Add(retryDelay(s.cfg.RetryBackoff, t.attempt)))
	t.redispatches++
	s.met.count(&s.met.redispatch)
}

// retryDelay is the backoff before re-dispatching a task that has had
// attempt dispatches: base·2^(attempt-1), capped at maxRetryBackoff.
func retryDelay(base time.Duration, attempt int) time.Duration {
	shift := min(max(attempt-1, 0), maxBackoffShift)
	d := base << shift
	if d <= 0 || d > maxRetryBackoff {
		// A large attempt count or base must degrade to the cap, never
		// overflow into a negative (immediate, hot-looping) delay.
		d = maxRetryBackoff
	}
	return d
}

// janitor expires the leases of stuck tasks and dead workers until the
// service shuts down.
func (s *Service) janitor() {
	defer s.bg.Done()
	tick := min(max(s.cfg.LeaseTimeout/4, 10*time.Millisecond), time.Second)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.expire()
		}
	}
}

// expire re-dispatches tasks whose lease lapsed and drops workers silent
// for a whole lease.
func (s *Service) expire() {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, w := range s.workers {
		if now.Sub(w.lastSeen) > s.cfg.LeaseTimeout {
			for taskID := range w.leases {
				if t, ok := s.tasks[taskID]; ok && t.state == taskLeased && t.worker == id {
					s.retryLocked(t, "worker "+id+" expired")
				}
			}
			delete(s.workers, id)
		}
	}
	for _, t := range s.tasks {
		if t.state == taskLeased && now.After(t.leaseDeadline) {
			if w := s.workers[t.worker]; w != nil {
				w.lost = append(w.lost, t.id)
			}
			cause := "lease expired on worker " + t.worker
			if !now.Before(t.taskDeadline) {
				cause = fmt.Sprintf("worker %s passed the %v task timeout deadline", t.worker, s.cfg.JobTimeout)
			}
			s.retryLocked(t, cause)
		}
	}
}
