package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readRecords returns the metric values of the valid run records in an
// -out file, keyed by workload and then metric name, and the number of
// invalid records it skipped.
func readRecords(path string) (map[string]map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	invalid := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if len(r.Invalid) > 0 {
			invalid++
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, invalid, sc.Err()
}

// comparison is one workload and metric of a compare.
type comparison struct {
	base, head []float64
	better     string
	bound      *float64
}

// verdict applies the bound: a metric whose run-to-run spread (quartile
// distance over median, on either side) exceeds its bound is unresolved,
// unless every head run reads better than every base run.
func (c comparison) verdict() string {
	if len(c.base) == 0 || len(c.head) == 0 {
		return "missing"
	}
	if c.bound == nil {
		return "-"
	}
	sign := 1.0 // > 0 means worse
	if c.better == "higher" {
		sign = -1
	}
	bm, hm := median(c.base), median(c.head)
	allBetter := true
	for _, b := range c.base {
		for _, h := range c.head {
			allBetter = allBetter && sign*(h-b) < 0
		}
	}
	switch {
	case allBetter:
		return "better"
	case math.Max(spread(c.base), spread(c.head)) > *c.bound:
		return "unresolved"
	case sign*(hm-bm) > *c.bound*math.Abs(bm):
		return "REGRESSION"
	}
	return "ok"
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// compareFiles prints one row per workload and metric found in either -out
// file, and reports whether a bounded metric regressed.
func compareFiles(w io.Writer, manifestPath, basePath, headPath string) (regressed bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	base, baseInvalid, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, headInvalid, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	for _, f := range []struct {
		path string
		n    int
	}{{basePath, baseInvalid}, {headPath, headInvalid}} {
		if f.n > 0 {
			fmt.Fprintf(w, "%s: skipped %d invalid runs\n", f.path, f.n)
		}
	}
	decl := map[string]declared{}
	var order []string
	for _, d := range append(append([]declared{}, man.EndToEnd...), man.PerLayer...) {
		decl[d.Name] = d
		order = append(order, d.Name)
	}
	seen := map[string]bool{}
	var names []string
	for _, runs := range []map[string]map[string][]float64{base, head} {
		for wl := range runs {
			if !seen[wl] {
				seen[wl] = true
				names = append(names, wl)
			}
		}
	}
	sort.Strings(names)

	cell := func(xs []float64) string {
		if len(xs) == 0 {
			return fmt.Sprintf("%-36s", "-")
		}
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%10.4g [%10.4g %10.4g] %2d", median(xs), q1, q3, len(xs))
	}
	fmt.Fprintf(w, "%-12s %-30s %-6s %-36s %-36s %8s %6s %s\n",
		"workload", "metric", "unit", "base median [q1 q3] n", "head median [q1 q3] n", "change", "bound", "verdict")
	for _, wl := range names {
		for _, name := range order {
			b, h := base[wl][name], head[wl][name]
			if len(b) == 0 && len(h) == 0 {
				continue
			}
			d := decl[name]
			c := comparison{base: b, head: h, better: d.Better, bound: d.Bound}
			v := c.verdict()
			regressed = regressed || v == "REGRESSION"
			change, bound := "-", "-"
			if len(b) > 0 && len(h) > 0 {
				change = fmt.Sprintf("%+.1f%%", (median(h)-median(b))/math.Abs(median(b))*100)
			}
			if d.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *d.Bound*100)
			}
			fmt.Fprintf(w, "%-12s %-30s %-6s %s %s %8s %6s %s\n", wl, name, d.Unit, cell(b), cell(h), change, bound, v)
		}
	}
	return regressed, nil
}
