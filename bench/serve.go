package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ofence/internal/corpus"
	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/service"
)

// The request mix. No trace of real requests backs these numbers; they are
// assumptions (see README.md).
const (
	lineageCount = 16
	lineageFiles = 20
	// repeatEvery: one request in repeatEvery repeats its lineage's latest
	// request exactly, which the result cache answers; the others change
	// one integer literal in one file of the lineage.
	repeatEvery = 5
	// warmupFiles: each warm-up request changes this many files of a
	// lineage, so that the default 1,024 warm-up requests fill the stage
	// caches' 4,096 entries.
	warmupFiles = 4
)

const (
	// verifyEvery: every verifyEvery-th request is re-analyzed in process
	// after its window and compared with the response.
	verifyEvery = 100
	// maxLateMS: a window whose generator sent its requests later than this
	// after their due times, at the 99th percentile, measured the generator
	// as much as the service, and its run is marked invalid.
	maxLateMS = 10
	// loadgenEnv, when set, makes the benchmark's binary a window's load
	// generator instead (see runLoadgen).
	loadgenEnv = "OFENCE_BENCH_LOADGEN"
)

// serviceMix is an open loop of requests to an in-process service behind a
// real loopback HTTP listener: one in five an exact repeat of the
// lineage's latest request, the rest a one-file edit of a warm lineage.
type serviceMix struct {
	cfg      *config
	svc      *service.Service
	srv      *http.Server
	served   chan error
	url      string
	conns    int
	client   *http.Client
	rng      *rand.Rand
	lineages []*lineage
}

// lineage is one evolving source set the service keeps a warm project for.
type lineage struct {
	files map[string]string // contents of the lineage's latest request
	names []string
	// probed is the file whose front end the latest request ran: the file
	// it edited, or the one an earlier request edited.
	probed string
}

// request is one planned submission: the lineage's files after it, and,
// for the load generator, how it changes the lineage's latest request.
type request struct {
	files  map[string]string
	probed string

	Lineage int    `json:"l"`
	Name    string `json:"n,omitempty"` // the file it changes; "" for an exact repeat
	Src     string `json:"s,omitempty"`
}

// script is what a window's load generator sends: the lineages as the
// window starts, then each request, due Every apart.
type script struct {
	URL      string              `json:"url"`
	Every    time.Duration       `json:"every"`
	Conns    int                 `json:"conns"`
	Lineages []map[string]string `json:"lineages"`
	Requests []request           `json:"requests"`
}

// jobReply is the part of the service's job JSON the benchmark reads.
type jobReply struct {
	State     string          `json:"state"`
	CacheHit  bool            `json:"cache_hit"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	WaitMS    float64         `json:"wait_ms"`
	HashMS    float64         `json:"hash_ms"`
	AnalyzeMS float64         `json:"analyze_ms"`
	TotalMS   float64         `json:"total_ms"`
}

// outcome is one request's fate.
type outcome struct {
	Due    time.Time `json:"due"`
	Sent   time.Time `json:"sent"`
	Done   time.Time `json:"done"`
	Status int       `json:"status"`
	Reply  jobReply  `json:"reply"`
	Err    string    `json:"err,omitempty"`
}

func (o *outcome) ok() bool {
	return o.Err == "" && o.Status == http.StatusOK && o.Reply.State == "done"
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

func requestBody(files map[string]string) ([]byte, error) {
	return json.Marshal(service.Request{Files: files})
}

// post sends one analyze request and fills o's times, status and reply.
func post(client *http.Client, url string, body []byte, o *outcome) {
	o.Sent = time.Now()
	data, err := func() ([]byte, error) {
		resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		o.Status = resp.StatusCode
		return io.ReadAll(resp.Body)
	}()
	o.Done = time.Now()
	if err == nil {
		err = json.Unmarshal(data, &o.Reply)
	}
	if err != nil {
		o.Err = err.Error()
	}
}

// setup starts the service, primes every lineage, and then sends the
// warm-up traffic that brings the service to its steady state: the jobs
// table, the result cache and the stage caches full.
func (s *serviceMix) setup() error {
	c := corpus.Generate(corpus.DefaultConfig(s.cfg.seed))
	if len(c.Order) < lineageFiles {
		return fmt.Errorf("corpus has %d files, want at least %d", len(c.Order), lineageFiles)
	}
	s.lineages = make([]*lineage, lineageCount)
	for i := range s.lineages {
		l := &lineage{files: map[string]string{}}
		for k := range lineageFiles {
			name := c.Order[(i*lineageFiles+k)%len(c.Order)]
			l.files[name] = c.Files[name]
			l.names = append(l.names, name)
		}
		sort.Strings(l.names)
		l.probed = l.names[0]
		s.lineages[i] = l
	}
	s.rng = rand.New(rand.NewSource(s.cfg.seed))

	s.svc = service.New(service.Config{Workers: runtime.GOMAXPROCS(0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.conns = runtime.NumCPU()
	s.client = newClient(s.conns)

	prime := make([]map[string]string, len(s.lineages))
	for i, l := range s.lineages {
		prime[i] = l.files
	}
	if err := s.drive(prime); err != nil {
		return fmt.Errorf("priming the lineages: %w", err)
	}
	warm := make([]map[string]string, s.cfg.warmup)
	for i := range warm {
		l := s.lineages[i%len(s.lineages)]
		if err := s.edit(l, warmupFiles); err != nil {
			return err
		}
		warm[i] = l.files
	}
	if err := s.drive(warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// drive sends every file set in a closed loop over the client's
// connections and fails if any request fails.
func (s *serviceMix) drive(sets []map[string]string) error {
	next := make(chan map[string]string)
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for files := range next {
				body, err := requestBody(files)
				var o outcome
				if err == nil {
					post(s.client, s.url, body, &o)
					if !o.ok() {
						err = fmt.Errorf("status %d, state %q: %s %s", o.Status, o.Reply.State, o.Err, o.Reply.Error)
					}
				}
				mu.Lock()
				first = cmp.Or(first, err)
				mu.Unlock()
			}
		}()
	}
	for _, files := range sets {
		next <- files
	}
	close(next)
	wg.Wait()
	return first
}

// edit changes one integer literal in each of k different files of l's
// latest request, drawn by the seeded generator, and makes the result l's
// latest request.
func (s *serviceMix) edit(l *lineage, k int) error {
	files := maps.Clone(l.files)
	changed := 0
	for _, i := range s.rng.Perm(len(l.names)) {
		if changed == k {
			break
		}
		name := l.names[i]
		if src, ok := changeLiteral(s.rng, files[name]); ok {
			files[name], l.probed = src, name
			changed++
		}
	}
	if changed < k {
		return fmt.Errorf("a lineage has %d files with an integer literal, want %d", changed, k)
	}
	l.files = files
	return nil
}

// plan draws the next n requests from the seeded mix.
func (s *serviceMix) plan(n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		r := request{Lineage: s.rng.Intn(len(s.lineages))}
		l := s.lineages[r.Lineage]
		if s.rng.Intn(repeatEvery) != 0 {
			if err := s.edit(l, 1); err != nil {
				return nil, err
			}
			r.Name, r.Src = l.probed, l.files[l.probed]
		}
		r.files, r.probed = l.files, l.probed
		out[i] = r
	}
	return out, nil
}

func (s *serviceMix) window(w *window) error {
	sc := &script{URL: s.url, Every: w.every, Conns: s.conns}
	for _, l := range s.lineages {
		sc.Lineages = append(sc.Lineages, l.files)
	}
	plan, err := s.plan(w.n)
	if err != nil {
		return err
	}
	sc.Requests = plan
	before, err := s.counters()
	if err != nil {
		return err
	}
	stages := s.svc.StageStats()

	outcomes, err := generate(sc, w.deadline)
	if err != nil {
		return err
	}

	after, err := s.counters()
	if err != nil {
		return err
	}
	w.addStages(stages, s.svc.StageStats())
	w.recomputedSum += after["ofence_files_recomputed_total"] - before["ofence_files_recomputed_total"]
	w.recomputedN += after["ofence_cache_misses_total"] - before["ofence_cache_misses_total"]
	lineageHits := after["ofence_lineage_hits_total"] - before["ofence_lineage_hits_total"]
	lineageMisses := after["ofence_lineage_misses_total"] - before["ofence_lineage_misses_total"]

	w.account(outcomes)
	w.extra["service.lineage_hit_ratio"] = metric{lineageHits / (lineageHits + lineageMisses), "ratio"}
	for i := range outcomes {
		if outcomes[i].ok() {
			recordRequest(w.rec, w.nextOp(), &outcomes[i])
		}
	}
	return s.verify(w, plan, outcomes)
}

// generate runs sc's open loop in a child process, the benchmark's binary
// with loadgenEnv set, and returns one outcome per request. Sending from
// this process would make the generator wait for the processors the
// service saturates: on a 2-CPU host its 99th-percentile lateness there was
// 14 to 23 ms.
func generate(sc *script, deadline time.Time) ([]outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(time.Minute))
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), loadgenEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var outcomes []outcome
	if err := json.Unmarshal(out, &outcomes); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if len(outcomes) != len(sc.Requests) {
		return nil, fmt.Errorf("load generator: %d outcomes for %d requests", len(outcomes), len(sc.Requests))
	}
	return outcomes, nil
}

// loadgenIfAsked runs as a window's load generator, and exits, when
// loadgenEnv is set.
func loadgenIfAsked() {
	if os.Getenv(loadgenEnv) == "" {
		return
	}
	if err := runLoadgen(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench: load generator:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runLoadgen is a window's load generator. It reads a script from in and
// sends its requests in an open loop: request i is due i*Every after the
// start whatever the service's state. It writes the outcomes to out as one
// JSON array, keeping the result of every verifyEvery-th reply only.
func runLoadgen(in io.Reader, out io.Writer) error {
	var sc script
	if err := json.NewDecoder(in).Decode(&sc); err != nil {
		return err
	}
	client := newClient(sc.Conns)
	defer client.CloseIdleConnections()
	outcomes := make([]outcome, len(sc.Requests))
	start := time.Now().Add(sc.Every)
	var wg sync.WaitGroup
	for i, r := range sc.Requests {
		files := sc.Lineages[r.Lineage]
		if r.Name != "" {
			files = maps.Clone(files)
			files[r.Name] = r.Src
			sc.Lineages[r.Lineage] = files
		}
		body, err := requestBody(files)
		if err != nil {
			return err
		}
		o := &outcomes[i]
		o.Due = start.Add(time.Duration(i) * sc.Every)
		time.Sleep(time.Until(o.Due))
		wg.Add(1)
		go func(keep bool) {
			defer wg.Done()
			post(client, sc.URL, body, o)
			if !keep {
				o.Reply.Result = nil
			}
		}(i%verifyEvery == 0)
	}
	wg.Wait()
	return json.NewEncoder(out).Encode(outcomes)
}

// account adds an open-loop window's outcomes to w. Each request's latency
// runs from when it was due, so it includes the generator's lateness and
// any wait for a connection.
func (w *window) account(outcomes []outcome) {
	var waits, hashes, https, lates, misses []float64
	var hits, rejected int
	for i := range outcomes {
		o := &outcomes[i]
		lates = append(lates, ms(o.Sent.Sub(o.Due)))
		if o.Status == http.StatusTooManyRequests {
			rejected++
		}
		if !o.ok() {
			w.failed++
			continue
		}
		w.verdict(o.Due, o.Done)
		w.analyze = append(w.analyze, o.Reply.AnalyzeMS)
		waits = append(waits, o.Reply.WaitMS)
		hashes = append(hashes, o.Reply.HashMS)
		https = append(https, ms(o.Done.Sub(o.Sent))-o.Reply.TotalMS)
		if o.Reply.CacheHit {
			hits++
		} else {
			misses = append(misses, ms(o.Done.Sub(o.Due)))
		}
	}
	w.extra["service.wait_ms_p50"] = metric{median(waits), "ms"}
	w.extra["service.wait_ms_p99"] = metric{quantile(waits, 0.99), "ms"}
	w.extra["service.hash_ms_p50"] = metric{median(hashes), "ms"}
	w.extra["service.analyze_ms_p50"] = metric{median(w.analyze), "ms"}
	w.extra["service.analyze_ms_p99"] = metric{quantile(w.analyze, 0.99), "ms"}
	w.extra["service.http_ms_p50"] = metric{median(https), "ms"}
	w.extra["service.cache_hit_ratio"] = metric{float64(hits) / float64(len(w.verdicts)), "ratio"}
	w.extra["service.miss_verdict_p50_ms"] = metric{median(misses), "ms"}
	w.extra["service.rejected"] = metric{float64(rejected), "count"}
	late := quantile(lates, 0.99)
	w.extra["gen.late_p99_ms"] = metric{late, "ms"}
	if late > maxLateMS {
		w.invalid = fmt.Sprintf("the load generator's 99th-percentile lateness, %.1f ms, exceeds %d ms", late, maxLateMS)
	}
}

// recordRequest records a request's client-side spans and, inside the HTTP
// exchange, the server's wait, hash and analyze stages as the job reports
// their lengths; the server's part is centred in the exchange.
func recordRequest(rec *recorder, op int64, o *outcome) {
	if rec == nil {
		return
	}
	root := rec.record("request", -1, op, o.Due, o.Done)
	exchange := rec.record("http", root, op, o.Sent, o.Done)
	d := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	t := o.Sent.Add((o.Done.Sub(o.Sent) - d(o.Reply.TotalMS)) / 2)
	for _, st := range []struct {
		name string
		v    float64
	}{{"service.wait", o.Reply.WaitMS}, {"service.hash", o.Reply.HashMS}, {"service.analyze", o.Reply.AnalyzeMS}} {
		rec.record(st.name, exchange, op, t, t.Add(d(st.v)))
		t = t.Add(d(st.v))
	}
}

// verify re-analyzes every verifyEvery-th request of the window in process
// and compares the result with the response; in a traced window each such
// analysis is also probed.
func (s *serviceMix) verify(w *window, plan []request, outcomes []outcome) error {
	ctx := context.Background()
	opts := service.OptionsSpec{}.Resolve()
	opts.Workers = runtime.GOMAXPROCS(0)
	for i := 0; i < len(plan); i += verifyEvery {
		if !outcomes[i].ok() {
			continue // already counted as failed
		}
		names := make([]string, 0, len(plan[i].files))
		for name := range plan[i].files {
			names = append(names, name)
		}
		sort.Strings(names)
		srcs := make([]ofence.SourceFile, len(names))
		for k, name := range names {
			srcs[k] = ofence.SourceFile{Name: name, Src: plan[i].files[name]}
		}
		p := ofence.NewProject()
		kernelhdr.Register(p)
		res, err := p.AnalyzeSourcesCtx(ctx, srcs, opts)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res.View())
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, outcomes[i].Reply.Result); err != nil || !bytes.Equal(got.Bytes(), want) {
			w.failed++
		}
		if w.rec != nil {
			probed := []ofence.SourceFile{{Name: plan[i].probed, Src: plan[i].files[plan[i].probed]}}
			in := probeInput{proj: p, res: res, opts: opts, include: kernelhdr.Headers(), files: probed}
			pb, err := runProbe(ctx, w.rec, w.nextOp(), in)
			if err != nil {
				return err
			}
			w.probes = append(w.probes, pb)
		}
	}
	return nil
}

// counters scrapes the service's unlabelled Prometheus counters.
func (s *serviceMix) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func (s *serviceMix) finish(*report) error { return nil }

// close stops the listener, drains the service and waits for both.
func (s *serviceMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx) // a timeout leaves connections to the process exit
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: http server:", err)
		}
		s.client.CloseIdleConnections()
	}
	if s.svc != nil {
		_ = s.svc.Close(ctx) // likewise for jobs still running
	}
	s.srv, s.svc, s.client, s.lineages = nil, nil, nil, nil
}
