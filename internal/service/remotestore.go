package service

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"ofence/internal/rescache"
)

// RemoteStore is the client side of the coordinator's /v1/store/{key}
// endpoints: an ArtifactStore whose blobs live at the coordinator. External
// workers attach it behind their stage caches, so a preprocess artifact
// computed by any worker is a hit for every other. Failures degrade to
// misses (Get) or drops (Put) and are counted — a flaky store must never
// fail an analysis.
type RemoteStore struct {
	base   string
	token  string
	client *http.Client

	gets, hits, puts, errs atomic.Uint64
}

// NewRemoteStore builds a store client for the coordinator at base
// (e.g. "http://coordinator:8080") that presents token, the coordinator's
// AuthToken. transport nil uses http.DefaultTransport.
func NewRemoteStore(base, token string, transport http.RoundTripper) *RemoteStore {
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &RemoteStore{
		base:   base,
		token:  token,
		client: &http.Client{Transport: transport, Timeout: 30 * time.Second},
	}
}

// Get fetches one blob. Any transport or status failure is a miss.
func (s *RemoteStore) Get(key rescache.Key) ([]byte, bool) {
	s.gets.Add(1)
	resp, err := s.do(http.MethodGet, key, nil)
	if err != nil {
		s.errs.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		s.errs.Add(1)
		return nil, false
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		s.errs.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return blob, true
}

// Put publishes one blob; failures are counted and dropped.
func (s *RemoteStore) Put(key rescache.Key, blob []byte) {
	s.puts.Add(1)
	resp, err := s.do(http.MethodPut, key, blob)
	if err != nil {
		s.errs.Add(1)
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		s.errs.Add(1)
	}
}

// do sends one store request, with the token when one is set.
func (s *RemoteStore) do(method string, key rescache.Key, blob []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, s.base+"/v1/store/"+string(key), bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if s.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.token)
	}
	return s.client.Do(req)
}

// Name identifies the backend in metrics.
func (s *RemoteStore) Name() string { return "remote" }

// Stats snapshots the client-side counters. Entries/Bytes are unknown to a
// remote client and reported as zero; the coordinator reports the
// authoritative backend's occupancy itself.
func (s *RemoteStore) Stats() rescache.StoreStats {
	return rescache.StoreStats{
		Gets:   s.gets.Load(),
		Hits:   s.hits.Load(),
		Puts:   s.puts.Load(),
		Errors: s.errs.Load(),
	}
}

// Close releases idle connections.
func (s *RemoteStore) Close() error {
	s.client.CloseIdleConnections()
	return nil
}
