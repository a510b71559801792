package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ofence/internal/rescache"
)

// latencyBuckets are the histogram upper bounds in seconds, log-spaced from
// 1ms to 10s (requests beyond fall into +Inf).
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// confidenceBuckets are the histogram upper bounds for the per-finding
// confidence scores (internal/rank), linear over the score's [0, 1] range.
var confidenceBuckets = []float64{
	0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1,
}

// histogram is a fixed-bucket histogram (Prometheus-compatible: cumulative
// bucket counts, sum and count). The bucket bounds are chosen at
// construction: latency seconds for stage histograms, confidence scores for
// the findings-confidence histogram.
type histogram struct {
	mu      sync.Mutex
	buckets []float64
	counts  []uint64 // one per bucket, non-cumulative; rendered cumulatively
	inf     uint64
	sum     float64
	n       uint64
}

func newHistogram() *histogram {
	return newHistogramWith(latencyBuckets)
}

func newHistogramWith(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets))}
}

func (h *histogram) observe(d time.Duration) {
	h.observeValue(d.Seconds())
}

func (h *histogram) observeValue(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.n++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// snapshot returns cumulative bucket counts (per Prometheus convention),
// the sum of observations and the total count.
func (h *histogram) snapshot() (cum []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.buckets)+1)
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	cum[len(h.buckets)] = running + h.inf
	return cum, h.sum, h.n
}

// metrics aggregates the service's counters and histograms. Job-lifecycle
// histograms (ofence_stage_latency_seconds) are keyed by stage name
// ("wait", "hash", "analyze", "total"); pipeline-stage histograms
// (ofence_stage_duration_seconds) are keyed by the obs span name of each
// pipeline stage ("preprocess", "parse", "cfg", "extract", "pair",
// "pair.shard", "check", ...) and fed from the span summaries every
// completed task reports, in-process or remote alike.
type metrics struct {
	mu       sync.Mutex
	stages   map[string]*histogram
	pipeline map[string]*histogram
	// confidence is the per-finding confidence-score histogram
	// (ofence_findings_confidence), one sample per finding of each
	// analysis a worker ran.
	confidence *histogram

	jobsSubmitted uint64
	jobsDone      uint64
	jobsFailed    uint64
	jobsCanceled  uint64
	queueRejected uint64
	// inferredSemantics totals the implicit-barrier functions inferred by
	// interprocedural analyses (zero unless clients request
	// interproc_depth).
	inferredSemantics uint64
	// filesReused/filesRecomputed total the per-file incremental cache
	// outcomes of the analyses workers ran.
	filesReused     uint64
	filesRecomputed uint64
	// lineageHits/lineageMisses/lineageEvictions track the workers'
	// warm-project lineage maps: a hit means the analysis found a warm
	// project for its source set and re-analyzed incrementally.
	lineageHits      uint64
	lineageMisses    uint64
	lineageEvictions uint64
	// The lease counters.
	tasksDispatched uint64
	redispatch      uint64
	quarantined     uint64
	heartbeats      uint64
}

func newMetrics() *metrics {
	return &metrics{
		stages:     map[string]*histogram{},
		pipeline:   map[string]*histogram{},
		confidence: newHistogramWith(confidenceBuckets),
	}
}

// histogramIn returns the named histogram of family, creating it on first
// use.
func (m *metrics) histogramIn(family map[string]*histogram, name string) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := family[name]
	if !ok {
		h = newHistogram()
		family[name] = h
	}
	return h
}

// stage returns the job-lifecycle histogram for one stage.
func (m *metrics) stage(name string) *histogram { return m.histogramIn(m.stages, name) }

func (m *metrics) count(field *uint64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// fold accounts one completed analysis, reported by any worker.
func (m *metrics) fold(c *completeRequest) {
	m.mu.Lock()
	m.filesReused += uint64(c.FilesReused)
	m.filesRecomputed += uint64(c.FilesRecomputed)
	m.inferredSemantics += uint64(c.Inferred)
	m.lineageEvictions += uint64(c.Evicted)
	switch c.Lineage {
	case "hit":
		m.lineageHits++
	case "miss":
		m.lineageMisses++
	}
	m.mu.Unlock()
	for _, v := range c.Confidence {
		m.confidence.observeValue(v)
	}
	for _, sp := range c.Spans {
		m.histogramIn(m.pipeline, sp.Name).observe(time.Duration(sp.DurNS))
	}
}

// MetricsText renders every service metric in the Prometheus text
// exposition format.
func (s *Service) MetricsText() string {
	var b strings.Builder
	m := s.met
	st := s.cache.Stats()

	// Live state under the service mutex: the queue and the leases.
	s.mu.Lock()
	queued, alive := s.queued, len(s.workers)
	leased := 0
	for _, t := range s.tasks {
		if t.state == taskLeased {
			leased++
		}
	}
	s.mu.Unlock()

	slots, busy := 0, 0
	if s.local != nil {
		slots, busy = s.local.capacity, int(s.local.busy.Load())
	}
	util := 0.0
	if slots > 0 {
		util = float64(busy) / float64(slots)
	}

	m.mu.Lock()
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"ofence_jobs_submitted_total", "Analysis jobs accepted", m.jobsSubmitted},
		{"ofence_jobs_done_total", "Jobs finished successfully", m.jobsDone},
		{"ofence_jobs_failed_total", "Jobs that errored, timed out or were quarantined", m.jobsFailed},
		{"ofence_jobs_canceled_total", "Jobs canceled by the drain deadline", m.jobsCanceled},
		{"ofence_queue_rejected_total", "Submissions rejected because the queue was full", m.queueRejected},
		{"ofence_inferred_semantics_total", "Implicit-barrier functions inferred by interprocedural analyses", m.inferredSemantics},
		{"ofence_files_reused_total", "Files whose extraction was served from the incremental cache", m.filesReused},
		{"ofence_files_recomputed_total", "Files whose extraction actually ran", m.filesRecomputed},
		{"ofence_lineage_hits_total", "Analyses that found a warm project for their source set", m.lineageHits},
		{"ofence_lineage_misses_total", "Analyses that created a new warm-project lineage", m.lineageMisses},
		{"ofence_lineage_evictions_total", "Warm-project lineages dropped by the LRU bound", m.lineageEvictions},
		{"ofence_tasks_dispatched_total", "Task leases handed to workers", m.tasksDispatched},
		{"ofence_redispatch_total", "Tasks re-queued after a failed attempt or a lost lease", m.redispatch},
		{"ofence_quarantined_total", "Tasks quarantined after exhausting their attempts", m.quarantined},
		{"ofence_heartbeats_total", "Worker heartbeats received", m.heartbeats},
		{"ofence_cache_hits_total", "Jobs answered from the result cache or its store", st.Hits + st.StoreHits},
		{"ofence_cache_misses_total", "Jobs that ran an analysis", st.Misses},
		{"ofence_cache_dedup_total", "Jobs that joined an identical in-flight analysis", st.Dedups},
		{"ofence_cache_evictions_total", "Results dropped by the LRU bound", st.Evictions},
	}
	stageNames := sortedKeys(m.stages)
	pipelineNames := sortedKeys(m.pipeline)
	m.mu.Unlock()
	for _, c := range counters {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}

	for _, g := range []struct {
		name string
		v    float64
	}{
		{"ofence_cache_entries", float64(st.Entries)},
		{"ofence_cache_hit_rate", st.HitRate()},
		{"ofence_inflight_leases", float64(leased)},
		{"ofence_queue_depth", float64(queued)},
		{"ofence_warm_lineages", float64(s.an.lineages())},
		{"ofence_worker_utilization", util},
		{"ofence_workers", float64(slots)},
		{"ofence_workers_alive", float64(alive)},
		{"ofence_workers_busy", float64(busy)},
	} {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", g.name, g.name, g.v)
	}

	if store := s.cfg.Store; store != nil {
		backend, ss := store.Name(), store.Stats()
		for _, c := range []struct {
			name, help string
			v          func(rescache.StoreStats) uint64
		}{
			{"ofence_store_gets_total", "Artifact-store lookups, by backend", func(ss rescache.StoreStats) uint64 { return ss.Gets }},
			{"ofence_store_hits_total", "Artifact-store lookups that returned a blob, by backend", func(ss rescache.StoreStats) uint64 { return ss.Hits }},
			{"ofence_store_puts_total", "Artifacts published to the store, by backend", func(ss rescache.StoreStats) uint64 { return ss.Puts }},
			{"ofence_store_errors_total", "Swallowed artifact-store backend failures, by backend", func(ss rescache.StoreStats) uint64 { return ss.Errors }},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s{backend=%q} %d\n", c.name, c.help, c.name, c.name, backend, c.v(ss))
		}
		b.WriteString("# HELP ofence_store_hit_ratio Fraction of store lookups that hit, by backend\n# TYPE ofence_store_hit_ratio gauge\n")
		fmt.Fprintf(&b, "ofence_store_hit_ratio{backend=%q} %g\n", backend, ss.HitRatio())
	}

	for _, fam := range []struct {
		name, help string
		names      []string
		hist       func(string) *histogram
	}{
		{"ofence_stage_latency_seconds", "Per-stage job latency", stageNames, m.stage},
		{"ofence_stage_duration_seconds", "Wall time of each analysis pipeline stage (obs span name)", pipelineNames,
			func(name string) *histogram { return m.histogramIn(m.pipeline, name) }},
	} {
		if len(fam.names) > 0 {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", fam.name, fam.help, fam.name)
		}
		for _, name := range fam.names {
			cum, sum, n := fam.hist(name).snapshot()
			for i, ub := range latencyBuckets {
				fmt.Fprintf(&b, "%s_bucket{stage=%q,le=\"%g\"} %d\n", fam.name, name, ub, cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", fam.name, name, cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum{stage=%q} %g\n", fam.name, name, sum)
			fmt.Fprintf(&b, "%s_count{stage=%q} %d\n", fam.name, name, n)
		}
	}

	if cum, sum, n := m.confidence.snapshot(); n > 0 {
		b.WriteString("# HELP ofence_findings_confidence Confidence score of each finding of each analysis run (internal/rank)\n")
		b.WriteString("# TYPE ofence_findings_confidence histogram\n")
		for i, ub := range confidenceBuckets {
			fmt.Fprintf(&b, "ofence_findings_confidence_bucket{le=\"%g\"} %d\n", ub, cum[i])
		}
		fmt.Fprintf(&b, "ofence_findings_confidence_bucket{le=\"+Inf\"} %d\n", cum[len(cum)-1])
		fmt.Fprintf(&b, "ofence_findings_confidence_sum %g\n", sum)
		fmt.Fprintf(&b, "ofence_findings_confidence_count %d\n", n)
	}
	return b.String()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
