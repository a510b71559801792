package service

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// analyzeRequest is the POST /v1/analyze body: the sources, the options,
// and whether to wait for the result (default) or return 202 immediately.
type analyzeRequest struct {
	Request
	Options OptionsSpec `json:"options"`
	Wait    *bool       `json:"wait,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/analyze          submit sources; waits for the result unless
//	                          {"wait": false}, which returns 202 + a job ID
//	GET  /v1/jobs/{id}        poll a job
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             Prometheus text metrics
//
// With Config.AuthToken set it also mounts the worker wire protocol, each
// request authenticated by `Authorization: Bearer <token>`:
//
//	POST /v1/fleet/register   announce a worker
//	POST /v1/fleet/poll       lease the next task (204 when none is ready)
//	POST /v1/fleet/heartbeat  renew liveness + task leases
//	POST /v1/fleet/complete   report a finished task
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.AuthToken != "" {
		mux.HandleFunc("POST /v1/fleet/register", s.authed(s.handleRegister))
		mux.HandleFunc("POST /v1/fleet/poll", s.authed(s.handlePoll))
		mux.HandleFunc("POST /v1/fleet/heartbeat", s.authed(s.handleHeartbeat))
		mux.HandleFunc("POST /v1/fleet/complete", s.authed(s.handleComplete))
	}
	return mux
}

// authed gates a worker-facing handler behind the shared secret.
func (s *Service) authed(h http.HandlerFunc) http.HandlerFunc {
	want := []byte("Bearer " + s.cfg.AuthToken)
	return func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "missing or invalid worker token"})
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// The request body is bounded a little above the source limit so that a
	// too-large request reports ErrTooLarge, not a JSON parse error.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+1<<20)
	var req analyzeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	j, err := s.Submit(&req.Request, req.Options)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrTooLarge):
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	if req.Wait != nil && !*req.Wait {
		writeJSON(w, http.StatusAccepted, j.View())
		return
	}
	select {
	case <-j.Done():
		writeJSON(w, http.StatusOK, j.View())
	case <-r.Context().Done():
		// Client went away; the job keeps running and stays pollable.
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.MetricsText()))
}

// decodeJSON decodes r's body, which must hold exactly one JSON value,
// into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// decodeWire decodes a wire-protocol body into v, answering 400 when it is
// malformed or names no worker.
func decodeWire(w http.ResponseWriter, r *http.Request, v any, workerID *string) bool {
	if err := decodeJSON(r, v); err != nil || *workerID == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad " + r.URL.Path + " body"})
		return false
	}
	return true
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if decodeWire(w, r, &req, &req.WorkerID) {
		_ = s.register(r.Context(), req)
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

func (s *Service) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if !decodeWire(w, r, &req, &req.WorkerID) {
		return
	}
	t, err := s.lease(r.Context(), req.WorkerID)
	switch {
	case err != nil:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case t == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, t)
	}
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if decodeWire(w, r, &req, &req.WorkerID) {
		resp, _ := s.heartbeat(r.Context(), req)
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+16<<20)
	var req completeRequest
	if !decodeWire(w, r, &req, &req.WorkerID) {
		return
	}
	if req.TaskID == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad " + r.URL.Path + " body"})
		return
	}
	_ = s.complete(r.Context(), &req)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
