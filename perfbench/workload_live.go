package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"eacache/internal/metrics"
	"eacache/internal/obs"
)

var (
	// peerMix is a 3-node ICP group placing documents with the EA rule,
	// memory only; the group's memory is 10% of the catalogue's bytes.
	// At scale 0.2 (115,155 records) the outcome mix, and with it the hit
	// rate, varies little from seed to seed.
	peerMix = liveSpec{nodes: 3, scale: 0.2, memShare: 0.10}
	// diskTier is one node whose memory holds 2% of the catalogue's
	// bytes and whose disk tier holds all of it, journaling to a data
	// directory. Its figures follow the host filesystem's state, so it
	// runs only inside peer-mix's traced run, for the tier, blob and
	// persist figures; its warm-up pass is capped.
	diskTier = liveSpec{nodes: 1, scale: 0.1, memShare: 0.02, disk: true, warmCap: 30 * time.Second, partialPass: true}
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// livePhase is the time a measured live phase runs before it finishes
// its pass: an equal share of the measured time for each of the
// end-to-end run's setupReps phases. The traced run's phases are as
// long.
func (o opts) livePhase() time.Duration { return o.seconds / setupReps }

// endToEnd sets the untraced group up setupReps times and measures each
// group so set up, one after another, for an equal share of the
// measured time, and reports medians over the measurements: a burst of
// load from elsewhere on the host then spoils one of them, not the
// result. Hit rate and estimated latency are taken over all the
// measured requests. Each group's garbage is collected before the next
// is set up, so that one measurement does not pay for another.
func (s liveSpec) endToEnd(o opts) (*report, error) {
	rep := newReport()
	var setups, rates, p90s, cpus []float64
	var all tally
	var cost procDelta
	for i := 0; i < setupReps; i++ {
		run, err := setUpLive(s, o.seed, o.dir(), false)
		if err != nil {
			return nil, err
		}
		p, pd, err := run.measure(o.livePhase(), false)
		if err != nil {
			return nil, err
		}
		if err := run.finish(&rep.checks); err != nil {
			return nil, err
		}
		runtime.GC()
		setups = append(setups, run.setup.Seconds())
		rates = append(rates, float64(p.Requests)/p.wall.Seconds())
		p90s = append(p90s, nearestRank(sortedCopy(p.lat), 0.9))
		cpus = append(cpus, perReqMicros(pd.cpu(), p.Requests))
		all.add(p.tally)
		cost = cost.plus(pd)
		rep.attempted += p.attempts
		rep.samples[fmt.Sprintf("latency_%d", i+1)] = len(p.lat)
	}
	end, err := sampleProc()
	if err != nil {
		return nil, err
	}
	rep.steal = cost.stealShare()
	rep.failed = all.failed
	m := &rep.metrics
	m.set("setup_s", "s", median(setups))
	m.set("throughput_rps", "1/s", median(rates))
	m.set("latency_p90_us", "us", median(p90s))
	m.set("cpu_us_per_req", "us", median(cpus))
	all.paperMetrics(m)
	m.set("max_rss_mb", "MB", float64(end.maxRSSKB)/1024)
	return rep, nil
}

// perLayer runs the group twice, untraced for the process figures and
// the tracing-overhead base, then traced, reading the nodes' stage
// histograms, counters and trace rings around the measured phase. It
// then runs the traced disk-tier node for the tier, blob and persist
// figures.
func (s liveSpec) perLayer(o opts) (*report, error) {
	rep := newReport()
	run, err := setUpLive(s, o.seed, o.dir(), false)
	if err != nil {
		return nil, err
	}
	p0, pd0, err := run.measure(o.livePhase(), false)
	if err != nil {
		return nil, err
	}
	if err := run.finish(&rep.checks); err != nil {
		return nil, err
	}

	run, p, traces, before, after, pd, err := tracedRun(s, o, o.dir(), &rep.checks)
	if err != nil {
		return nil, err
	}
	replication := run.g.replication(run.in)
	if err := run.finish(&rep.checks); err != nil {
		return nil, err
	}
	m := &rep.metrics
	for _, oc := range outcomes {
		rep.latency("netnode."+oc.name, p.latencies(oc.o))
	}
	rep.latency("netnode.request", p.lat)
	layerMetrics(rep, p, traces, before, after, pd)
	m.put("core.replication_factor", "copies/doc", replication)
	p.byteHitRate(m)
	tracedCPU, untracedCPU := perReqMicros(pd.cpu(), p.Requests), perReqMicros(pd0.cpu(), p0.Requests)
	m.set("obs.tracing_overhead", "ratio", tracingOverhead(tracedCPU, untracedCPU))
	m.bases["obs.tracing_overhead"] = ratio{Num: tracedCPU, Den: untracedCPU}
	pd0.processMetrics(p0.Requests, m.put)
	rep.attempted, rep.failed = p.attempts, p.failed
	spans := spanRecords("peer-mix", p, traces, maxSpans/2)

	if err := tierMetrics(rep, o, &spans); err != nil {
		return nil, err
	}
	return rep, writeSpans(o, spans)
}

// tracedRun sets up spec with telemetry on and measures it, observing
// the nodes' counters before and after and checking them against the
// clients' tally. The caller finishes the run.
func tracedRun(spec liveSpec, o opts, dir string, ck *checks) (*liveRun, *phase, []*obs.Trace, observation, observation, procDelta, error) {
	var before, after observation
	run, err := setUpLive(spec, o.seed, dir, true)
	if err != nil {
		return nil, nil, nil, before, after, procDelta{}, err
	}
	if before, err = run.g.observe(); err != nil {
		return nil, nil, nil, before, after, procDelta{}, err
	}
	p, pd, err := run.measure(o.livePhase(), true)
	if err != nil {
		return nil, nil, nil, before, after, procDelta{}, err
	}
	if after, err = run.g.observe(); err != nil {
		return nil, nil, nil, before, after, procDelta{}, err
	}
	checkCounts(ck, p, before, after)
	return run, p, run.g.windowTraces(p.start), before, after, pd, nil
}

// tierMetrics runs the traced disk-tier node and sets the tier, blob
// and persist figures; its spans are appended to spans.
func tierMetrics(rep *report, o opts, spans *[]spanRec) error {
	run, p, traces, before, after, pd, err := tracedRun(diskTier, o, filepath.Join(o.dir(), "tier"), &rep.checks)
	if err != nil {
		return err
	}
	if err := run.finish(&rep.checks); err != nil {
		return err
	}
	m := &rep.metrics
	n := float64(p.Requests)
	rep.latency("netnode.tier_local_hit", p.latencies(metrics.LocalHit))
	rep.latency("cache.tier_lookup", stageSamples(traces, obs.StageLocalLookup))
	_, shares := selfTimes(p, traces)
	m.put("cache.tier_lookup_time_share", "ratio", shares[obs.StageLocalLookup])
	m.set("cache.tier_cpu_us_per_req", "us", perReqMicros(pd.cpu(), p.Requests))
	m.put("cache.tier_sys_cpu_share", "ratio", ratio{float64(pd.sys), float64(pd.cpu())})
	for _, c := range []struct{ name, series string }{
		{"cache.tier_promotions_per_req", "eac_tier_promotions"},
		{"cache.tier_demotions_per_req", "eac_tier_demotions"},
		{"cache.tier_demotion_drops_per_req", "eac_tier_demotion_drops"},
	} {
		m.put(c.name, "1/req", ratio{before.diff(after, c.series), n})
	}
	// A defect count: every failure since the node started, warm-up
	// included.
	m.set("cache.tier_checksum_failures", "count", after.reg["eac_tier_checksum_failures"])
	diskDocs := after.reg[`eac_tier_documents{tier="disk"}`]
	m.put("blob.files_per_doc", "files/doc", ratio{float64(after.blobFiles), diskDocs})
	m.put("blob.space_amplification", "ratio", ratio{float64(after.blobFileBytes), after.reg[`eac_tier_bytes{tier="disk"}`]})
	m.put("persist.journal_bytes_per_req", "B/req", ratio{float64(after.journalBytes - before.journalBytes), n})
	*spans = append(*spans, spanRecords("disk-tier", p, traces, maxSpans/2)...)
	rep.attempted += p.attempts
	rep.failed += p.failed
	return nil
}

// perReqMicros is d spread over n requests, in microseconds.
func perReqMicros(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}
