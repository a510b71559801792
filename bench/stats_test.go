package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{10, 1, 9, 2, 8, 3, 7}, med: 7, q1: 2, q3: 9},
		{xs: []float64{1, 2, 3, 4}, med: 2.5, q1: 1.25, q3: 3.75},
		{xs: []float64{4}, med: 4, q1: 4, q3: 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestTailPercent(t *testing.T) {
	// The highest candidate percentile, at most the limit, with at least
	// ten samples beyond it.
	for _, tc := range []struct{ n, limit, want int }{
		{0, 100, 50}, {19, 100, 50}, {33, 100, 50}, {34, 100, 70}, {49, 100, 70},
		{50, 100, 80}, {99, 100, 80},
		{100, 100, 90}, {199, 100, 90}, {200, 100, 95}, {999, 100, 95},
		{1000, 100, 99}, {3000, 100, 99},
		{3000, 95, 95}, {3000, 80, 80}, {1000, 70, 70}, {1000, 75, 70}, {160, 95, 90}, {15, 95, 50},
	} {
		if got := tailPercent(tc.n, tc.limit); got != tc.want {
			t.Errorf("tailPercent(%d, %d) = %d, want %d", tc.n, tc.limit, got, tc.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs, 100); p != 95 || v != quantile(xs, 0.95) || countAbove(xs, v) < 10 {
		t.Errorf("tail of 1..200 = %g at p%d", v, p)
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(msec int) time.Time { return start.Add(time.Duration(msec) * time.Millisecond) }
	done := jobReply{State: "done", TotalMS: 4, AnalyzeMS: 1}
	hit := jobReply{State: "done", TotalMS: 1, CacheHit: true}
	outcomes := []outcome{
		// On time: 5 ms from due to reply.
		{Due: at(0), Sent: at(0), Done: at(5), Status: http.StatusOK, Reply: done},
		// Sent 20 ms late: the lateness is part of the latency.
		{Due: at(10), Sent: at(30), Done: at(36), Status: http.StatusOK, Reply: done},
		// Refused: counted as failed and rejected, not as a latency.
		{Due: at(20), Sent: at(20), Done: at(21), Status: http.StatusTooManyRequests},
		// Answered by the result cache.
		{Due: at(30), Sent: at(30), Done: at(32), Status: http.StatusOK, Reply: hit},
	}
	w := &window{extra: map[string]metric{}}
	w.account(outcomes)
	if len(w.verdicts) != 3 || w.verdicts[0] != 5 || w.verdicts[1] != 26 || w.verdicts[2] != 2 {
		t.Errorf("latencies %v, want [5 26 2]", w.verdicts)
	}
	if w.failed != 1 || w.extra["service.rejected"].Value != 1 {
		t.Errorf("failed %d rejected %g, want 1 and 1", w.failed, w.extra["service.rejected"].Value)
	}
	if got := w.extra["service.http_ms_p50"].Value; got != 1 {
		t.Errorf("http p50 %g, want 1 (exchange minus the job's total)", got)
	}
	if got := w.extra["service.miss_verdict_p50_ms"].Value; got != 15.5 {
		t.Errorf("miss p50 %g, want 15.5 (the hit left out)", got)
	}
	if got := w.extra["service.cache_hit_ratio"].Value; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("cache hit ratio %g, want 1/3", got)
	}
	// 20 ms late at the 99th percentile is beyond the 10 ms the generator
	// may be late: the window measured the generator, not the service.
	if got := w.extra["gen.late_p99_ms"].Value; got != 20 || w.invalid == "" {
		t.Errorf("lateness p99 %g, invalid %q: want 20 and the window invalid", got, w.invalid)
	}

	// The same requests sent 3 ms late keep the window valid.
	for i := range outcomes {
		outcomes[i].Sent = outcomes[i].Due.Add(3 * time.Millisecond)
	}
	w = &window{extra: map[string]metric{}}
	w.account(outcomes)
	if got := w.extra["gen.late_p99_ms"].Value; got != 3 || w.invalid != "" {
		t.Errorf("lateness p99 %g, invalid %q: want 3 and the window valid", got, w.invalid)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[string]time.Duration
	}{
		{
			name:  "leaf",
			spans: []span{{name: "a", start: 0, end: ms(10), parent: -1}},
			want:  map[string]time.Duration{"a": ms(10)},
		},
		{
			name: "disjoint children",
			spans: []span{
				{name: "root", start: 0, end: ms(100), parent: -1},
				{name: "x", start: ms(10), end: ms(30), parent: 0},
				{name: "y", start: ms(50), end: ms(60), parent: 0},
			},
			want: map[string]time.Duration{"root": ms(70), "x": ms(20), "y": ms(10)},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{name: "root", start: 0, end: ms(100), parent: -1},
				{name: "x", start: ms(10), end: ms(50), parent: 0},
				{name: "x", start: ms(30), end: ms(70), parent: 0},
				{name: "y", start: ms(40), end: ms(45), parent: 0},
			},
			want: map[string]time.Duration{"root": ms(40), "x": ms(80), "y": ms(5)},
		},
		{
			name: "children clipped to the parent",
			spans: []span{
				{name: "root", start: ms(10), end: ms(20), parent: -1},
				{name: "x", start: ms(0), end: ms(15), parent: 0},
			},
			want: map[string]time.Duration{"root": ms(5), "x": ms(15)},
		},
		{
			name: "grandchildren only reduce their parent",
			spans: []span{
				{name: "root", start: 0, end: ms(100), parent: -1},
				{name: "x", start: 0, end: ms(50), parent: 0},
				{name: "z", start: ms(10), end: ms(20), parent: 1},
			},
			want: map[string]time.Duration{"root": ms(50), "x": ms(40), "z": ms(10)},
		},
	} {
		got := selfTimes(tc.spans)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
			continue
		}
		for name, d := range tc.want {
			if got[name] != d {
				t.Errorf("%s: self(%s) = %v, want %v", tc.name, name, got[name], d)
			}
		}
	}
}

func TestLiterals(t *testing.T) {
	src := "#include <x86.h>\n#define N 4\nint a_1 = 12; // 34\n/* 56 */ char *s = \"78\"; int b = 0x9f + 3.5 + 7;\n"
	var got []string
	for _, l := range literals(src) {
		got = append(got, src[l[0]:l[1]])
	}
	if want := []string{"12", "7"}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("literals = %q, want %q", got, want)
	}
}
