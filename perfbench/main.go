// Command perfbench is eacache's benchmark. It replays the repository's
// BU-like trace generator through the program's public entry points —
// netnode.Node.Request on a live loopback group, and sim.Run — and
// prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload peer-mix --seed 1 --seconds 15 --trace 0
//
// Workloads are peer-mix and sim-replay (BENCHMARK.json says why each
// was chosen). With --trace 0 the result carries the end-to-end metrics,
// measured with telemetry off; with --trace 1 it carries the per-layer
// metrics of a separate traced run, and the spans are written under the
// work directory. Peer-mix's traced run also runs a disk-tier node for
// the tier, blob and persist figures. The last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the line before it carries the host, the sample counts, the base
// of every ratio and any failed output check. --baseline compares the
// result with an earlier run's record and refuses one from another host.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workdir  string
}

// dir is the run's scratch directory for node state.
func (o opts) dir() string { return filepath.Join(o.workdir, "run", o.workload) }

// workload is one named input set and how to measure it.
type workload struct {
	endToEnd func(o opts) (*report, error)
	perLayer func(o opts) (*report, error)
}

var workloads = map[string]workload{
	"peer-mix":   {endToEnd: peerMix.endToEnd, perLayer: peerMix.perLayer},
	"sim-replay": {endToEnd: simEndToEnd, perLayer: simPerLayer},
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "peer-mix or sim-replay")
		seed     = fs.Uint64("seed", 1, "trace generator seed")
		seconds  = fs.Int("seconds", 10, "length of the measured phase")
		traceOn  = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		workdir  = fs.String("workdir", ".bench_build/perfbench", "directory for node state, spans and result records")
		baseline = fs.String("baseline", "", "an earlier result record to compare with (same host only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	o := opts{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceOn == 1, workdir: *workdir}
	measure, want := w.endToEnd, endToEndMetrics
	if o.traced {
		measure, want = w.perLayer, perLayerMetrics
	}
	rep, err := measure(o)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(o.dir()); err != nil {
		return err
	}
	if err := rep.metrics.complete(want); err != nil {
		return err
	}
	rec := record{
		Workload: o.workload, Seed: o.seed, Trace: *traceOn,
		Host:    probeHost(filepath.Join(o.dir(), "tier", "n0", "disk"), filepath.Join(o.dir(), "tier", "n0", "data")),
		Samples: rep.samples, Bases: rep.metrics.bases, Failures: rep.checks.failed,
		Result: result{
			Correct: len(rep.checks.failed) == 0, Attempted: rep.attempted, Failed: rep.failed,
			Metrics: rep.metrics.vals,
		},
	}
	if rec.Result.Attempted < 1 {
		return errors.New("no request was attempted")
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	if err := rec.save(filepath.Join(o.workdir, "results")); err != nil {
		return err
	}
	if *baseline != "" {
		if err := compare(*baseline, rec, stderr); err != nil {
			return err
		}
	}
	detail, err := json.Marshal(struct {
		Host     host             `json:"host"`
		Steal    float64          `json:"steal_share"`
		Samples  map[string]int   `json:"samples"`
		Bases    map[string]ratio `json:"bases"`
		Failures []string         `json:"failed_checks"`
	}{rec.Host, rep.steal, rec.Samples, rec.Bases, rec.Failures})
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	return err
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them with telemetry off. Latency is reported at p90: on
// peer-mix local hits, close to half of all requests, take microseconds
// and the rest hundreds of them, so the p50 would jump between the two
// modes as the outcome mix moves with the seed.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p90_us", "us"},
	{"cpu_us_per_req", "us"},
	{"hit_rate", "ratio"},
	{"est_latency_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayerMetrics are the traced run's figures, prefixed by the module
// they describe. A workload that does no work in a module reports its
// figures as 0.
var perLayerMetrics = []metricSpec{
	{"netnode.local_hit_p50_us", "us"}, {"netnode.local_hit_p99_us", "us"},
	{"netnode.remote_hit_p50_us", "us"}, {"netnode.remote_hit_p99_us", "us"},
	{"netnode.miss_p50_us", "us"}, {"netnode.miss_p99_us", "us"},
	{"netnode.request_p50_us", "us"}, {"netnode.request_p99_us", "us"},
	{"resolve.self_p50_us", "us"}, {"resolve.coalesced_ratio", "ratio"}, {"resolve.retries_per_req", "1/req"},
	{"cache.local_lookup_p50_us", "us"}, {"cache.local_lookup_p99_us", "us"},
	{"cache.lookup_time_share", "ratio"}, {"cache.evictions_per_req", "1/req"},
	{"netnode.tier_local_hit_p50_us", "us"}, {"netnode.tier_local_hit_p99_us", "us"},
	{"cache.tier_lookup_p50_us", "us"}, {"cache.tier_lookup_p99_us", "us"},
	{"cache.tier_lookup_time_share", "ratio"},
	{"cache.tier_cpu_us_per_req", "us"}, {"cache.tier_sys_cpu_share", "ratio"},
	{"cache.tier_promotions_per_req", "1/req"}, {"cache.tier_demotions_per_req", "1/req"},
	{"cache.tier_demotion_drops_per_req", "1/req"}, {"cache.tier_checksum_failures", "count"},
	{"icp.fanout_p50_us", "us"}, {"icp.fanout_p99_us", "us"}, {"icp.fanout_time_share", "ratio"},
	{"icp.fanouts_per_req", "1/req"}, {"icp.fanout_hit_ratio", "ratio"}, {"icp.silent_peers", "count"},
	{"hproto.remote_fetch_p50_us", "us"}, {"hproto.remote_fetch_p99_us", "us"},
	{"hproto.origin_fetch_p50_us", "us"}, {"hproto.origin_fetch_p99_us", "us"},
	{"hproto.fetch_time_share", "ratio"}, {"hproto.serve_remote_p50_us", "us"},
	{"hproto.tcp_opens_per_fetch", "1/fetch"},
	{"core.requester_accept_ratio", "ratio"}, {"core.responder_promote_ratio", "ratio"},
	{"core.replication_factor", "copies/doc"}, {"core.byte_hit_rate", "ratio"},
	{"blob.files_per_doc", "files/doc"}, {"blob.space_amplification", "ratio"},
	{"persist.journal_bytes_per_req", "B/req"},
	{"sim.allocs_per_record", "1/record"}, {"sim.alloc_bytes_per_record", "B/record"},
	{"proxy.local_hit_p50_ns", "ns"}, {"proxy.remote_hit_p50_ns", "ns"}, {"proxy.miss_p50_ns", "ns"},
	{"proxy.icp_queries_per_record", "1/record"},
	{"obs.tracing_overhead", "ratio"},
	{"process.allocs_per_req", "1/req"}, {"process.alloc_bytes_per_req", "B/req"},
	{"process.syscalls_per_req", "1/req"}, {"process.gc_per_kreq", "1/kreq"},
	{"process.sys_cpu_share", "ratio"},
}

// metricSet collects a run's figures and the base of every ratio.
type metricSet struct {
	vals  map[string]metric
	bases map[string]ratio
}

func newMetricSet() metricSet {
	return metricSet{vals: make(map[string]metric), bases: make(map[string]ratio)}
}

func (m *metricSet) set(name, unit string, v float64) { m.vals[name] = metric{Value: v, Unit: unit} }

// put records a ratio's value and keeps its base.
func (m *metricSet) put(name, unit string, r ratio) {
	m.set(name, unit, r.Value())
	m.bases[name] = r
}

// complete checks the set against want: every metric set is wanted with
// the same unit, and the wanted ones not set (layers that did no work)
// read 0.
func (m *metricSet) complete(want []metricSpec) error {
	units := make(map[string]string, len(want))
	for _, w := range want {
		units[w.name] = w.unit
	}
	for name, v := range m.vals {
		if u, ok := units[name]; !ok || u != v.Unit {
			return fmt.Errorf("metric %s (%s) is not in the reported list", name, v.Unit)
		}
	}
	for _, w := range want {
		if _, ok := m.vals[w.name]; !ok {
			m.set(w.name, w.unit, 0)
		}
	}
	return nil
}

// checks collects failed output checks.
type checks struct{ failed []string }

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// report is what a workload measured.
type report struct {
	metrics   metricSet
	checks    checks
	attempted int64
	failed    int64
	// samples counts the observations behind each percentile.
	samples map[string]int
	// steal is the hypervisor's share of the machine over the measured
	// phase; a noisy neighbour shows here, not in the metrics' names.
	steal float64
}

func newReport() *report {
	return &report{metrics: newMetricSet(), samples: make(map[string]int)}
}

// latency sets a per-layer p50 and p99 of lat (microseconds) under
// prefix_p50_us and prefix_p99_us. A p99 without minTail samples beyond
// it reads 0.
func (r *report) latency(prefix string, lat []float64) {
	s := sortedCopy(lat)
	r.samples[prefix] = len(s)
	r.metrics.set(prefix+"_p50_us", "us", nearestRank(s, 0.5))
	p99, _ := tailPercentile(s, 0.99)
	r.metrics.set(prefix+"_p99_us", "us", p99)
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result saved with what it was measured on.
type record struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Trace    int              `json:"trace"`
	Host     host             `json:"host"`
	Samples  map[string]int   `json:"samples"`
	Bases    map[string]ratio `json:"bases"`
	Failures []string         `json:"failed_checks"`
	Result   result           `json:"result"`
}

func (r record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

// compare prints each metric's change against an earlier record of the
// same workload and mode, and refuses a record from another host.
func compare(path string, cur record, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base record
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Host != cur.Host {
		return fmt.Errorf("baseline %s was measured on another host (%+v, here %+v): refusing to compare", path, base.Host, cur.Host)
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace {
		return fmt.Errorf("baseline %s is %s/trace %d, not %s/trace %d", path, base.Workload, base.Trace, cur.Workload, cur.Trace)
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for n := range cur.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, ok := base.Result.Metrics[n]
		c := cur.Result.Metrics[n]
		switch {
		case !ok:
			fmt.Fprintf(w, "%-36s %14.4f %s (not in baseline)\n", n, c.Value, c.Unit)
		case b.Value == 0:
			fmt.Fprintf(w, "%-36s %14.4f -> %14.4f %s\n", n, b.Value, c.Value, c.Unit)
		default:
			fmt.Fprintf(w, "%-36s %14.4f -> %14.4f %s (%+.1f%%)\n", n, b.Value, c.Value, c.Unit, 100*(c.Value/b.Value-1))
		}
	}
	return nil
}
