package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into the
// analyzer. The analyzer itself runs without a tracer: these spans are
// taken from outside, at the boundary of each public call.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the enclosing span, or -1
	op         int64         // the verdict or probe the span belongs to
}

// recorder holds spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs execute the same code with no spans.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record stores a span that ran from start to end and returns its index
// for use as a child's parent. Spans may be recorded after their children.
func (r *recorder) record(name string, parent int, op int64, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start.Sub(r.epoch), end: end.Sub(r.epoch), parent: parent, op: op})
	return len(r.spans) - 1
}

// open stores a span whose interval is filled in by finish, so that
// children recorded meanwhile can name it as their parent.
func (r *recorder) open(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.record(name, parent, op, now, now)
}

// finish sets the interval of an opened span.
func (r *recorder) finish(i int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].start, r.spans[i].end = start.Sub(r.epoch), end.Sub(r.epoch)
}

// since records a span from start to now and returns its duration; a nil
// recorder only measures.
func (r *recorder) since(name string, parent int, op int64, start time.Time) time.Duration {
	end := time.Now()
	r.record(name, parent, op, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(s, children[i])
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur := s.start // everything before cur is already counted
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, s.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeChrome writes spans as a Chrome trace (chrome://tracing, Perfetto):
// one complete event per span, one thread lane per operation.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
