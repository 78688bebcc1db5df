package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"eacache/internal/metrics"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},
		{3, 0.5, 2},
		{4, 0.5, 2},
		{10, 0.9, 9},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{1000, 1, 1000},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := nearestRank(seq(c.n), c.q); got != c.want {
			t.Errorf("nearestRank(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// 1,000 samples put exactly 10 beyond the p99 rank (990).
	if v, ok := tailPercentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples: rank 990 leaves only 9 beyond it.
	if _, ok := tailPercentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported, but only 9 lie beyond it")
	}
	// 100 samples are enough for a p90 (10 beyond rank 90) ...
	if v, ok := tailPercentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// ... but not for a p99.
	if _, ok := tailPercentile(seq(100), 0.99); ok {
		t.Error("p99 of 100 samples reported")
	}
	if _, ok := tailPercentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestRatioKeepsBase(t *testing.T) {
	r := ratio{Num: 1, Den: 4}
	if r.Value() != 0.25 {
		t.Errorf("1/4 = %v", r.Value())
	}
	if (ratio{Num: 3}).Value() != 0 {
		t.Error("a ratio over an empty base must read 0")
	}
	m := newMetricSet()
	m.put("x", "ratio", ratio{Num: 500, Den: 1000})
	if m.vals["x"].Value != 0.5 || m.bases["x"] != (ratio{Num: 500, Den: 1000}) {
		t.Errorf("put kept %v with base %v", m.vals["x"], m.bases["x"])
	}
	raw, err := json.Marshal(m.bases["x"])
	if err != nil || string(raw) != `{"num":500,"den":1000}` {
		t.Errorf("base encodes as %s, %v", raw, err)
	}
}

func TestSelfTime(t *testing.T) {
	us := time.Microsecond
	parent := interval{0, 100 * us}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * us},
		{"disjoint", []interval{{10 * us, 20 * us}, {50 * us, 80 * us}}, 60 * us},
		{"overlap counted once", []interval{{10 * us, 40 * us}, {30 * us, 60 * us}}, 50 * us},
		{"nested", []interval{{10 * us, 90 * us}, {20 * us, 30 * us}}, 20 * us},
		{"clipped to parent", []interval{{-10 * us, 10 * us}, {95 * us, 120 * us}}, 85 * us},
		{"outside parent", []interval{{150 * us, 160 * us}}, 100 * us},
		{"unsorted", []interval{{60 * us, 70 * us}, {10 * us, 20 * us}}, 80 * us},
		{"covers all", []interval{{0, 100 * us}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracingOverhead(t *testing.T) {
	if got := tracingOverhead(105, 100); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("105 vs 100 µs/req = %v, want 0.05", got)
	}
	if got := tracingOverhead(95, 100); math.Abs(got+0.05) > 1e-12 {
		t.Errorf("95 vs 100 µs/req = %v, want -0.05", got)
	}
	if got := tracingOverhead(10, 0); got != 0 {
		t.Errorf("over a zero base = %v, want 0", got)
	}
}

func TestCompleteZeroFillsAndRejectsStrays(t *testing.T) {
	want := []metricSpec{{"a", "us"}, {"b", "ratio"}}
	m := newMetricSet()
	m.set("a", "us", 3)
	if err := m.complete(want); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.vals["b"]; !ok || v.Value != 0 || v.Unit != "ratio" {
		t.Errorf("missing metric filled as %+v, %v", v, ok)
	}
	m.set("c", "us", 1)
	if err := m.complete(want); err == nil {
		t.Error("a metric outside the list was accepted")
	}
	m = newMetricSet()
	m.set("a", "ms", 1)
	if err := m.complete(want); err == nil {
		t.Error("a metric with the wrong unit was accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the ones the program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
}

// TestCheckCounts holds the clients' tally of a phase against the
// nodes' own request and byte counters, which the check must refuse to
// accept when they disagree.
func TestCheckCounts(t *testing.T) {
	p := &phase{attempts: 6}
	p.record(metrics.LocalHit, 10)
	p.record(metrics.LocalHit, 10)
	p.record(metrics.RemoteHit, 20)
	p.record(metrics.Miss, 30)
	p.record(metrics.Miss, 40)
	p.failed = 1
	nodes := func(local, remote, miss, errs, localBytes float64) observation {
		return observation{reg: map[string]float64{
			`eac_requests_total{outcome="local-hit"}`:      local,
			`eac_requests_total{outcome="remote-hit"}`:     remote,
			`eac_requests_total{outcome="miss"}`:           miss,
			`eac_requests_total{outcome="error"}`:          errs,
			`eac_bytes_served_total{outcome="local-hit"}`:  localBytes,
			`eac_bytes_served_total{outcome="remote-hit"}`: 20,
			`eac_bytes_served_total{outcome="miss"}`:       70,
		}}
	}
	before := observation{reg: map[string]float64{}}
	var ck checks
	checkCounts(&ck, p, before, nodes(2, 1, 2, 1, 20))
	if len(ck.failed) != 0 {
		t.Errorf("matching counts failed: %v", ck.failed)
	}
	for name, after := range map[string]observation{
		"a hit counted as a miss": nodes(1, 1, 3, 1, 20),
		"a lost failure":          nodes(2, 1, 2, 0, 20),
		"a wrong size":            nodes(2, 1, 2, 1, 21),
	} {
		var ck checks
		checkCounts(&ck, p, before, after)
		if len(ck.failed) == 0 {
			t.Errorf("%s passed the check", name)
		}
	}
}
