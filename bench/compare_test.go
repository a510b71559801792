package main

import "testing"

func TestComparisonVerdict(t *testing.T) {
	bound := 0.10
	steady := []float64{99, 100, 100, 101, 100, 100, 99, 101, 100, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		bound      *float64
		want       string
	}{
		{"same", steady, steady, "lower", &bound, "ok"},
		{"within the bound", steady, shift(steady, 1.05), "lower", &bound, "ok"},
		{"worse by more than the bound", steady, shift(steady, 1.2), "lower", &bound, "REGRESSION"},
		{"every head run better", steady, shift(steady, 0.8), "lower", &bound, "better"},
		{"higher is better", steady, shift(steady, 0.8), "higher", &bound, "REGRESSION"},
		{"spread wider than the bound", []float64{50, 100, 150, 100, 60, 140}, shift(steady, 1.2), "lower", &bound, "unresolved"},
		{"no bound", steady, shift(steady, 2), "lower", nil, "-"},
		{"missing side", steady, nil, "lower", &bound, "missing"},
	} {
		c := comparison{base: tc.base, head: tc.head, better: tc.better, bound: tc.bound}
		if got := c.verdict(); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
