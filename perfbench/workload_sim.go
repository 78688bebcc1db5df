package main

import (
	"fmt"
	"time"

	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/sim"
)

const (
	// simCaches is the simulated group size, running EA over ICP.
	simCaches = 4
	// simAggShare is the group's aggregate cache as a share of the
	// catalogue's bytes.
	simAggShare = 0.10
)

// simSetup generates the full BU-like trace; a fresh group is built for
// every pass.
func simSetup(seed uint64) (*input, time.Duration, error) {
	t0 := time.Now()
	in, err := makeInput(1, seed)
	if err != nil {
		return nil, 0, err
	}
	if _, err := newSimGroup(in); err != nil {
		return nil, 0, err
	}
	return in, time.Since(t0), nil
}

func newSimGroup(in *input) (*group.Group, error) {
	return group.New(group.Config{
		Caches:         simCaches,
		AggregateBytes: int64(simAggShare * float64(in.catalogueBytes)),
		Scheme:         core.EA{},
	})
}

// simPass is one sim.Run call over the whole trace on a fresh group.
type simPass struct {
	wall time.Duration
	cost procDelta
	rep  *sim.Report
}

// replay runs one pass, bracketed by process samples, and checks that
// it counts what first did (when first is not nil).
func replay(in *input, first *sim.Report, ck *checks) (simPass, error) {
	g, err := newSimGroup(in)
	if err != nil {
		return simPass{}, err
	}
	before, err := sampleProc()
	if err != nil {
		return simPass{}, err
	}
	rep, err := sim.Run(g, in.recs, sim.Config{})
	if err != nil {
		return simPass{}, err
	}
	after, err := sampleProc()
	if err != nil {
		return simPass{}, err
	}
	if first != nil {
		ck.expect(rep.Group == first.Group, "sim pass counts %+v differ from the first pass's %+v", rep.Group, first.Group)
	}
	return simPass{wall: after.at.Sub(before.at), cost: before.to(after), rep: rep}, nil
}

// directCall is the benchmark's span around one direct proxy call, or
// around a batch of consecutive calls.
type directCall struct {
	start, dur time.Duration
	outcome    metrics.Outcome // 0 for a batch
}

// directPass replays the trace on a fresh group by calling
// group.Route(c).Request for each record, as sim.Run does, and checks
// that it counts what sim.Run counted. It reads the clock around every
// batch consecutive calls and returns one span per batch, each with
// its mean call time; with batch 1 every call is timed on its own and
// carries its outcome.
func directPass(in *input, want metrics.CountersSnapshot, batch int, ck *checks) ([]directCall, error) {
	g, err := newSimGroup(in)
	if err != nil {
		return nil, err
	}
	calls := make([]directCall, 0, len(in.recs)/batch+1)
	var got tally
	start := time.Now()
	t0 := start
	for i := range in.recs {
		rec := &in.recs[i]
		res, err := g.Route(rec.Client).Request(rec.URL, rec.Size, rec.Time)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		got.record(res.Outcome, rec.Size)
		if (i+1)%batch != 0 {
			continue
		}
		t1 := time.Now()
		c := directCall{start: t0.Sub(start), dur: t1.Sub(t0) / time.Duration(batch)}
		if batch == 1 {
			c.outcome = res.Outcome
		}
		calls = append(calls, c)
		t0 = t1
	}
	want.SimLatency = 0
	ck.expect(got.CountersSnapshot == want, "direct calls counted %+v, sim.Run %+v", got.CountersSnapshot, want)
	return calls, nil
}

// durations returns the calls' times with outcome o (any outcome when o
// is 0) in unit.
func durations(calls []directCall, o metrics.Outcome, unit time.Duration) []float64 {
	var out []float64
	for _, c := range calls {
		if o == 0 || c.outcome == o {
			out = append(out, float64(c.dur)/float64(unit))
		}
	}
	return out
}

// latencyBatch is how many consecutive direct calls one clock reading
// brackets on sim-replay's end-to-end run: one call takes about a
// microsecond, so a reading per call would weigh on what it measures.
const latencyBatch = 64

// simEndToEnd alternates whole sim.Run passes, each bracketed by
// process samples, with direct-call passes timed in batches until the
// measured time is up, and reports medians over the passes.
func simEndToEnd(o opts) (*report, error) {
	rep := newReport()
	var setups []float64
	var in *input
	for i := 0; i < setupReps; i++ {
		var d time.Duration
		var err error
		if in, d, err = simSetup(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	var rates, cpus, p90s []float64
	var first *sim.Report
	var cost procDelta
	start := time.Now()
	for len(rates) < 2 || time.Since(start) < o.seconds {
		p, err := replay(in, first, &rep.checks)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p.rep
		}
		calls, err := directPass(in, first.Group, latencyBatch, &rep.checks)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(len(in.recs))/p.wall.Seconds())
		cpus = append(cpus, perReqMicros(p.cost.cpu(), int64(len(in.recs))))
		p90s = append(p90s, nearestRank(sortedCopy(durations(calls, 0, time.Microsecond)), 0.9))
		rep.attempted += 2 * int64(len(in.recs))
		cost = cost.plus(p.cost)
	}
	end, err := sampleProc()
	if err != nil {
		return nil, err
	}
	rep.steal = cost.stealShare()
	m := &rep.metrics
	m.set("setup_s", "s", median(setups))
	m.set("throughput_rps", "1/s", median(rates))
	m.set("latency_p90_us", "us", median(p90s))
	m.set("cpu_us_per_req", "us", median(cpus))
	tally{CountersSnapshot: first.Group}.paperMetrics(m)
	m.set("max_rss_mb", "MB", float64(end.maxRSSKB)/1024)
	rep.samples["passes"] = len(rates)
	rep.samples["latency_batches_per_pass"] = len(in.recs) / latencyBatch
	return rep, nil
}

// simPerLayer replays whole sim.Run passes for the sim figures until
// the measured time is up, then calls group.Route(c).Request directly,
// each call timed, for the proxy figures.
func simPerLayer(o opts) (*report, error) {
	rep := newReport()
	in, _, err := simSetup(o.seed)
	if err != nil {
		return nil, err
	}
	var passes []simPass
	var cost procDelta
	start := time.Now()
	for len(passes) < 2 || time.Since(start) < o.seconds {
		var first *sim.Report
		if len(passes) > 0 {
			first = passes[0].rep
		}
		p, err := replay(in, first, &rep.checks)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		cost = cost.plus(p.cost)
	}
	calls, err := directPass(in, passes[0].rep.Group, 1, &rep.checks)
	if err != nil {
		return nil, err
	}

	m := &rep.metrics
	for _, oc := range outcomes {
		s := sortedCopy(durations(calls, oc.o, time.Nanosecond))
		rep.samples["proxy."+oc.name] = len(s)
		m.set("proxy."+oc.name+"_p50_ns", "ns", nearestRank(s, 0.5))
	}
	last := passes[0].rep
	var queries, evictions float64
	for _, pr := range last.PerProxy {
		queries += float64(pr.ICP.QueriesSent)
		evictions += float64(pr.Evictions)
	}
	recs := float64(len(in.recs))
	n := int64(len(passes) * len(in.recs))
	m.put("proxy.icp_queries_per_record", "1/record", ratio{queries, recs})
	m.put("cache.evictions_per_req", "1/req", ratio{evictions, recs})
	m.put("core.replication_factor", "copies/doc", ratio{float64(last.Replication.TotalCopies), float64(last.Replication.UniqueDocs)})
	tally{CountersSnapshot: last.Group}.byteHitRate(m)
	m.put("sim.allocs_per_record", "1/record", ratio{float64(cost.mallocs), float64(n)})
	m.put("sim.alloc_bytes_per_record", "B/record", ratio{float64(cost.allocBytes), float64(n)})
	cost.processMetrics(n, m.put)
	rep.attempted = n + int64(len(calls))
	return rep, writeSpans(o, simSpans(passes, calls))
}

// simSpans is one span per sim.Run pass, then one per direct proxy
// call, up to the span cap. Each list's times run from its own start.
func simSpans(passes []simPass, calls []directCall) []spanRec {
	out := make([]spanRec, 0, min(len(passes)+len(calls), maxSpans))
	var at time.Duration
	for i, p := range passes {
		out = append(out, spanRec{ID: fmt.Sprintf("pass-%d", i), Layer: "sim", Name: "sim.Run",
			StartUS: micros(at), DurUS: micros(p.wall)})
		at += p.wall
	}
	for i, c := range calls {
		if len(out) >= maxSpans {
			break
		}
		out = append(out, spanRec{ID: fmt.Sprintf("call-%d", i), Layer: "proxy", Name: "Proxy.Request",
			StartUS: micros(c.start), DurUS: micros(c.dur), Outcome: c.outcome.String()})
	}
	return out
}
