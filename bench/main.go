// Command bench is the analyzer's benchmark. It runs one named workload per
// process, checks every verdict against ground truth, and prints every
// metric by name and unit; the last line of standard output is a JSON
// summary. See README.md for the workloads, the metrics, and how to run,
// trace and compare.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"ofence/internal/rescache"
)

// config is one run's settings. The defaults are the benchmark; the smoke
// test shrinks the scale fields.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where a traced run writes its Chrome trace
	out      string // file the run record is appended to, or ""

	treeFiles int // files in the generated kernel tree
	setups    int // set-up rounds; setup_s is their median
	warmup    int // service_mix warm-up requests per set-up
	verdicts  int // verdicts per run; 0 derives it from seconds
}

func defaultConfig() *config {
	return &config{
		workload:  "all",
		seed:      1,
		seconds:   18,
		traceDir:  ".bench_build",
		treeFiles: 2048,
		setups:    3,
		warmup:    1024,
	}
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the inputs from the seed and brings the analyzer to
	// ready, replacing any earlier set-up.
	setup() error
	// window runs w.n verdicts and times each into w. Probes and
	// per-verdict verification run outside the timed sections.
	window(w *window) error
	// finish runs the end-of-run correctness gates.
	finish(r *report) error
	// close releases the set-up's state; it may be called more than once.
	close()
}

// workloadSpec names a workload and its nominal verdict rate, which sizes a
// run: a run of s seconds makes ceil(s*perSecond) verdicts, so the same
// seed always gives the same inputs. The open loop also sends at that rate.
// tailLimit caps the percentile verdict_tail_ms reports: above it, the
// workload's run-to-run spread on the calibration host exceeded every
// usable bound. On service_mix the collector's cycles slow 15 to 25% of a
// window's requests, by as much as the host lets them, so its p80 sits on
// the edge of that share and p70 below it (see README.md).
type workloadSpec struct {
	name      string
	perSecond float64
	tailLimit int
	make      func(cfg *config) workload
}

var workloads = []workloadSpec{
	{"cold_tree", 0.6, 95, func(cfg *config) workload { return &coldTree{cfg: cfg} }},
	{"edit_d0", 16, 95, func(cfg *config) workload { return &editLoop{cfg: cfg, depth: 0} }},
	{"edit_d1", 6, 95, func(cfg *config) workload { return &editLoop{cfg: cfg, depth: 1} }},
	{"service_mix", 50, 70, func(cfg *config) workload { return &serviceMix{cfg: cfg} }},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// window collects one timed run of verdicts.
type window struct {
	n        int
	every    time.Duration // nominal time between verdicts
	rec      *recorder     // nil: untraced
	ops      *atomic.Int64
	deadline time.Time

	verdicts  []float64 // ms per successful verdict
	tailLimit int       // highest percentile verdict_tail_ms may use
	analyze   []float64 // ms in the analyzer's analysis call per verdict
	failed    int
	probes    []probe

	recomputedSum float64 // files re-extracted, over recomputedN analyses
	recomputedN   float64
	stageHits     map[string]float64 // per stage-cache: lookups served from cache
	stageLookups  map[string]float64

	extra   map[string]metric // workload-specific numbers
	cut     bool              // stopped early at deadline
	invalid string            // why the window measured something else, or ""
}

func (w *window) nextOp() int64 { return w.ops.Add(1) }

// late reports whether the window is past its deadline; loops stop there.
func (w *window) late() bool {
	if time.Now().After(w.deadline) {
		w.cut = true
	}
	return w.cut
}

func (w *window) verdict(start, end time.Time) {
	w.verdicts = append(w.verdicts, ms(end.Sub(start)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload run; -out appends it whole.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      map[string]string `json:"env"`
	Extra    map[string]metric `json:"extra"`
	Counts   map[string]int    `json:"samples"`
	Problems []string          `json:"problems,omitempty"`
	// Invalid says why the run measured something other than the analyzer;
	// -compare skips such runs.
	Invalid []string `json:"invalid,omitempty"`
	summary
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// set records a metric with the number of samples behind it (0: none).
func (r *report) set(into map[string]metric, name, unit string, v float64, n int) {
	into[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.Counts[name] = n
	}
}

// run executes cfg.workload in this process.
func run(cfg *config) (*report, error) {
	spec, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: map[string]string{
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
			"platform":   runtime.GOOS + "/" + runtime.GOARCH,
		},
		Extra: map[string]metric{}, Counts: map[string]int{},
		summary: summary{Metrics: map[string]metric{}},
	}
	wl := spec.make(cfg)
	defer wl.close()

	var setups []float64
	for range cfg.setups {
		wl.close() // drop the previous round's state before timing the next
		runtime.GC()
		t := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	n := cfg.verdicts
	if n <= 0 {
		n = int(math.Ceil(cfg.seconds * spec.perSecond))
	}
	every := time.Duration(cfg.seconds * float64(time.Second) / float64(n))
	// A window stops early once it runs past its share of the run length by
	// a quarter, so that a slow host cannot stretch a run without bound.
	limit := time.Duration(1.25 * cfg.seconds * float64(time.Second))
	var ops atomic.Int64
	var windows []*window
	measure := func(n int, limit time.Duration, rec *recorder) (*window, error) {
		// Every window starts from a collected heap, so that set-up garbage
		// and the collector's phase do not differ between runs.
		runtime.GC()
		w := &window{
			n: max(n, 1), every: every, rec: rec, ops: &ops, deadline: time.Now().Add(limit), tailLimit: spec.tailLimit,
			stageHits: map[string]float64{}, stageLookups: map[string]float64{},
			extra: map[string]metric{},
		}
		windows = append(windows, w)
		return w, wl.window(w)
	}
	if !cfg.trace {
		w, err := measure(n, limit, nil)
		if err != nil {
			return nil, err
		}
		r.endToEnd(setups, w, peakRSSMB())
	} else {
		// The same workload untraced, then traced: the per-layer numbers
		// come from the second half, and the two halves give the overhead.
		// The traced half also runs the probes, which take about as long as
		// its verdicts.
		plain, err := measure(n/2, limit/2, nil)
		if err != nil {
			return nil, err
		}
		traced, err := measure(n-n/2, limit, newRecorder())
		if err != nil {
			return nil, err
		}
		if err := r.perLayer(cfg, plain, traced); err != nil {
			return nil, err
		}
	}
	if err := wl.finish(r); err != nil {
		return nil, err
	}

	last := windows[len(windows)-1]
	for k, v := range last.extra {
		r.Extra[k] = v
	}
	for _, w := range windows {
		if w.invalid != "" {
			r.Invalid = append(r.Invalid, w.invalid)
		}
		r.Attempted += w.n
		r.Failed += w.failed
		if w.cut {
			// The planned verdicts that did not run are not attempts.
			r.Attempted -= w.n - len(w.verdicts) - w.failed
			r.Extra["verdicts_cut"] = metric{float64(w.n - len(w.verdicts) - w.failed), "count"}
		}
	}
	if r.Failed > 0 {
		r.problem("%d of %d operations failed", r.Failed, r.Attempted)
	}
	r.Extra["failed_frac"] = metric{float64(r.Failed) / float64(max(r.Attempted, 1)), "ratio"}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s has no value", name)
			r.Metrics[name] = metric{0, m.Unit}
		}
	}
	for name, m := range r.Extra {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(r.Extra, name)
		}
	}
	r.Correct = len(r.Problems) == 0
	return r, nil
}

// endToEnd fills the metrics of an untraced run.
func (r *report) endToEnd(setups []float64, w *window, rssMB float64) {
	m := r.Metrics
	r.set(m, "setup_s", "s", median(setups), len(setups))
	r.set(m, "verdict_p50_ms", "ms", median(w.verdicts), len(w.verdicts))
	t, p := tail(w.verdicts, w.tailLimit)
	r.set(m, "verdict_tail_ms", "ms", t, len(w.verdicts))
	r.set(r.Extra, "verdict_tail_percentile", "count", float64(p), 0)
	// Higher percentiles that resolve but are not bounded.
	for _, hi := range []int{80, 95, 99} {
		if hi > p && tailPercent(len(w.verdicts), hi) == hi {
			r.set(r.Extra, fmt.Sprintf("verdict_p%d_ms", hi), "ms", quantile(w.verdicts, float64(hi)/100), len(w.verdicts))
		}
	}
	r.set(m, "peak_rss_mb", "MB", rssMB, 0)
}

// perLayer fills the metrics of a traced run from its traced half, and
// writes the Chrome trace.
func (r *report) perLayer(cfg *config, plain, traced *window) error {
	m := r.Metrics
	probes := traced.probes
	med := func(name, unit string, f func(probe) float64) {
		vals := make([]float64, len(probes))
		for i, p := range probes {
			vals[i] = f(p)
		}
		r.set(m, name, unit, median(vals), len(vals))
	}
	med("cpp.busy_ms", "ms", func(p probe) float64 { return ms(p.cpp) })
	med("cpp.tokens", "count", func(p probe) float64 { return float64(p.tokens) })
	med("cparser.busy_ms", "ms", func(p probe) float64 { return ms(p.cparser) })
	med("cparser.arena_bytes", "bytes", func(p probe) float64 { return float64(p.arenaBytes) })
	med("ctypes.busy_ms", "ms", func(p probe) float64 { return ms(p.ctypes) })
	med("access.busy_ms", "ms", func(p probe) float64 { return ms(p.access) })
	med("access.sites", "count", func(p probe) float64 { return float64(p.sites) })
	med("ofence.tail_ms", "ms", func(p probe) float64 { return ms(p.tail) })
	med("ofence.pair_ms", "ms", func(p probe) float64 { return ms(p.pair) })
	med("ofence.pair_index_probes", "count", func(p probe) float64 { return float64(p.indexProbes) })
	med("rank.index_ms", "ms", func(p probe) float64 { return ms(p.rankIndex) })
	med("callgraph.ms", "ms", func(p probe) float64 { return ms(p.callgraph) })
	med("callgraph.edges", "count", func(p probe) float64 { return float64(p.edges) })
	med("semprop.ms", "ms", func(p probe) float64 { return ms(p.semprop) })
	med("semprop.sccs", "count", func(p probe) float64 { return float64(p.sccs) })
	med("ofence.tail_other_ms", "ms", func(p probe) float64 { return ms(p.other) })

	front := make([]float64, len(probes))
	tails := make([]float64, len(probes))
	for i, p := range probes {
		front[i], tails[i] = ms(p.frontWall), ms(p.tail)
	}
	verdict := median(traced.verdicts)
	r.set(m, "ofence.unattributed_ms", "ms", verdict-median(front)-median(tails), len(traced.verdicts))
	r.set(r.Extra, "frontend.wall_ms", "ms", median(front), len(front))

	r.set(m, "ofence.analyze_ms_p50", "ms", median(traced.analyze), len(traced.analyze))
	t, _ := tail(traced.analyze, traced.tailLimit)
	r.set(m, "ofence.analyze_ms_tail", "ms", t, len(traced.analyze))
	r.set(m, "ofence.files_recomputed_mean", "count", traced.recomputedSum/traced.recomputedN, int(traced.recomputedN))
	for _, stage := range []string{"preprocess", "parse", "cfg", "extract"} {
		ratio := 0.0
		if n := traced.stageLookups[stage]; n > 0 {
			ratio = traced.stageHits[stage] / n
		}
		r.set(m, "rescache."+stage+".hit_ratio", "ratio", ratio, int(traced.stageLookups[stage]))
	}
	base := median(plain.verdicts)
	r.set(m, "trace.overhead_pct", "%", (verdict-base)/base*100, len(traced.verdicts))

	spans := traced.rec.snapshot()
	for name, d := range selfTimes(spans) {
		r.set(r.Extra, "self_ms."+name, "ms", ms(d), 0)
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	r.Env["chrome_trace"] = path
	return writeChrome(path, spans)
}

// addStages adds the stage-cache lookups between two snapshots to w.
func (w *window) addStages(before, after map[string]rescache.Stats) {
	for name, a := range after {
		b := before[name]
		hits := float64(a.Hits+a.Dedups+a.StoreHits) - float64(b.Hits+b.Dedups+b.StoreHits)
		w.stageHits[name] += hits
		w.stageLookups[name] += hits + float64(a.Misses) - float64(b.Misses)
	}
}

// peakRSSMB returns this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// print writes the human-readable lines and then the JSON summary line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%t nproc=%s gomaxprocs=%s go=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env["nproc"], r.Env["gomaxprocs"], r.Env["go"])
	table := func(kind string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			n := ""
			if c, ok := r.Counts[name]; ok {
				n = fmt.Sprintf("n=%d", c)
			}
			fmt.Fprintf(w, "  %-6s %-34s %14.4f %-6s %s\n", kind, name, ms[name].Value, ms[name].Unit, n)
		}
	}
	table("metric", r.Metrics)
	table("extra", r.Extra)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "  INVALID %s\n", why)
	}
	if path, ok := r.Env["chrome_trace"]; ok {
		fmt.Fprintf(w, "  chrome trace: %s\n", path)
	}
	line, err := json.Marshal(r.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord appends r as one JSON line to path.
func appendRecord(path string, r *report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runAll runs every workload in its own child process, so that peak RSS
// and GC state are per workload, and prints a combined summary line.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	total := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code, total.Correct = 1, false
		}
		var last string
		for sc := bufio.NewScanner(&out); sc.Scan(); {
			last = sc.Text()
		}
		var s summary
		if err := json.Unmarshal([]byte(last), &s); err != nil {
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for name, m := range s.Metrics {
			total.Metrics[w.name+"."+name] = m
		}
	}
	data, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return code
}

func main() {
	loadgenIfAsked()
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", cfg.workload, "workload to run, or \"all\" for each in a child process")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the tree, the corpus, the edits and the request mix")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "nominal length of the measured part of a run")
	traceFlag := fs.Int("trace", 0, "1: run untraced then traced and report per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "append the run record to this file (JSON lines)")
	compare := fs.Bool("compare", false, "compare two -out files against the bounds in ./BENCHMARK.json: bench -compare BASE HEAD")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag != 0

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare BASE HEAD")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if cfg.workload == "all" {
		var args []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		os.Exit(runAll(args))
	}

	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !r.Correct {
		os.Exit(1)
	}
}
