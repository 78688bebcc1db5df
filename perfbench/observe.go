package main

import (
	"bufio"
	"bytes"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// observation is the group's counters at one instant, summed over the
// nodes: the telemetry registries as exposed, the robustness snapshot,
// and what the disk tier and journal hold on disk.
type observation struct {
	reg           map[string]float64
	robust        metrics.RobustnessSnapshot
	journalBytes  int64
	blobFiles     int64
	blobFileBytes int64
}

// observe reads every node's registry through its Prometheus exposition
// and sums the series by name and labels.
func (g *liveGroup) observe() (observation, error) {
	ob := observation{reg: make(map[string]float64)}
	for i, nd := range g.nodes {
		var buf bytes.Buffer
		if err := g.tels[i].Registry.WritePrometheus(&buf); err != nil {
			return ob, err
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
				ob.reg[line[:cut]] += v
			}
		}
		rb := nd.Robustness()
		ob.robust.CoalescedFollowers += rb.CoalescedFollowers
		ob.robust.Retries += rb.Retries
		if g.spec.disk {
			ob.journalBytes += dirBytes(g.dataDir(i), func(name string) bool { return strings.HasPrefix(name, "journal.") })
			ob.blobFiles += dirFiles(filepath.Join(g.diskDir(i), "blobs"))
			ob.blobFileBytes += dirBytes(filepath.Join(g.diskDir(i), "blobs"), nil)
		}
	}
	return ob, nil
}

// diff is a series' growth from ob to later.
func (ob observation) diff(later observation, series string) float64 {
	return later.reg[series] - ob.reg[series]
}

// checkCounts compares what the clients saw over a traced phase with
// what the nodes themselves counted over it: eac_requests_total and
// eac_bytes_served_total growth, by outcome and summed over the nodes.
// Their outcomes and failures must add up to the clients' attempts.
func checkCounts(ck *checks, p *phase, before, after observation) {
	var total float64
	for _, c := range []struct {
		outcome  string
		n, bytes int64
	}{
		{metrics.LocalHit.String(), p.LocalHits, p.BytesLocal},
		{metrics.RemoteHit.String(), p.RemoteHits, p.BytesRemote},
		{metrics.Miss.String(), p.Misses, p.BytesMissed},
		{"error", p.failed, -1},
	} {
		label := `{outcome="` + c.outcome + `"}`
		n := before.diff(after, "eac_requests_total"+label)
		total += n
		ck.expect(n == float64(c.n), "the nodes counted %.0f %s requests, the clients %d", n, c.outcome, c.n)
		if c.bytes >= 0 {
			b := before.diff(after, "eac_bytes_served_total"+label)
			ck.expect(b == float64(c.bytes), "the nodes served %.0f %s bytes, the clients received %d", b, c.outcome, c.bytes)
		}
	}
	ck.expect(total == float64(p.attempts), "the nodes counted %.0f requests, the clients attempted %d", total, p.attempts)
}

// dirBytes sums the sizes of the regular files under dir whose names
// keep accepts (all when keep is nil).
func dirBytes(dir string, keep func(string) bool) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() || (keep != nil && !keep(d.Name())) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// dirFiles counts the regular files under dir.
func dirFiles(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n
}

// windowTraces returns the traces every node's ring still holds from
// requests and remote legs that started at or after start.
func (g *liveGroup) windowTraces(start time.Time) []*obs.Trace {
	var out []*obs.Trace
	for _, tel := range g.tels {
		for _, tr := range tel.Traces.Snapshot() {
			if !tr.Start.Before(start) {
				out = append(out, tr)
			}
		}
	}
	return out
}

// replication counts copies per resident document over the catalogue
// with Node.Contains.
func (g *liveGroup) replication(in *input) ratio {
	var r ratio
	for url := range in.size {
		copies := 0
		for _, nd := range g.nodes {
			if nd.Contains(url) {
				copies++
			}
		}
		if copies > 0 {
			r.Num += float64(copies)
			r.Den++
		}
	}
	return r
}

// outcomes names the three request outcomes for per-outcome figures.
var outcomes = []struct {
	name string
	o    metrics.Outcome
}{{"local_hit", metrics.LocalHit}, {"remote_hit", metrics.RemoteHit}, {"miss", metrics.Miss}}

// latencies returns the phase's request durations with outcome o, in
// microseconds.
func (p *phase) latencies(o metrics.Outcome) []float64 {
	var out []float64
	for _, sp := range p.spans {
		if sp.outcome == o {
			out = append(out, float64(sp.dur)/float64(time.Microsecond))
		}
	}
	return out
}

// stageSamples gathers one stage's span durations (microseconds) from
// the traces.
func stageSamples(traces []*obs.Trace, stage string) []float64 {
	var out []float64
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if sp.Stage == stage {
				out = append(out, float64(sp.DurUS))
			}
		}
	}
	return out
}

// stageSeries is a stage histogram's sample count series.
func stageSeries(stage string) string {
	return `eac_stage_duration_seconds_count{stage="` + stage + `"}`
}

// layerMetrics derives the per-module figures of a traced live phase
// from its spans, the nodes' traces, and the counter growth over it.
func layerMetrics(rep *report, p *phase, traces []*obs.Trace, before, after observation, pd procDelta) {
	m := &rep.metrics
	n := float64(p.Requests)
	perReq := func(name, series string) {
		m.put(name, "1/req", ratio{before.diff(after, series), n})
	}
	stagePct := func(prefix, stage string) {
		rep.latency(prefix, stageSamples(traces, stage))
	}

	// resolve: the request span minus the node's stage spans, and the
	// engine's single-flight and retry counts.
	self, shares := selfTimes(p, traces)
	s := sortedCopy(self)
	rep.samples["resolve.self"] = len(s)
	m.set("resolve.self_p50_us", "us", nearestRank(s, 0.5))
	m.put("resolve.coalesced_ratio", "ratio", ratio{
		float64(after.robust.CoalescedFollowers - before.robust.CoalescedFollowers), n})
	m.put("resolve.retries_per_req", "1/req", ratio{float64(after.robust.Retries - before.robust.Retries), n})

	// cache: the memory tier and the tiered store.
	stagePct("cache.local_lookup", obs.StageLocalLookup)
	m.put("cache.lookup_time_share", "ratio", shares[obs.StageLocalLookup])
	perReq("cache.evictions_per_req", "eac_cache_evictions")
	// icp
	stagePct("icp.fanout", obs.StageICPFanout)
	m.put("icp.fanout_time_share", "ratio", shares[obs.StageICPFanout])
	perReq("icp.fanouts_per_req", stageSeries(obs.StageICPFanout))
	m.put("icp.fanout_hit_ratio", "ratio", fanoutHits(traces))
	m.set("icp.silent_peers", "count", before.diff(after, "eac_icp_silent_peers_total"))

	// hproto: both fetch stages include the dial.
	stagePct("hproto.remote_fetch", obs.StageRemoteFetch)
	stagePct("hproto.origin_fetch", obs.StageOriginFetch)
	fetchShare := shares[obs.StageRemoteFetch]
	fetchShare.Num += shares[obs.StageOriginFetch].Num
	m.put("hproto.fetch_time_share", "ratio", fetchShare)
	serve := sortedCopy(stageSamples(traces, obs.StageServe))
	rep.samples["hproto.serve_remote"] = len(serve)
	m.set("hproto.serve_remote_p50_us", "us", nearestRank(serve, 0.5))
	fetches := before.diff(after, stageSeries(obs.StageRemoteFetch)) + before.diff(after, stageSeries(obs.StageOriginFetch))
	m.put("hproto.tcp_opens_per_fetch", "1/fetch", ratio{float64(pd.tcpOpens), fetches})

	// core: EA placement verdicts.
	decisions := func(role, decision string) float64 {
		return before.diff(after, `eac_placement_decisions_total{decision="`+decision+`",role="`+role+`"}`)
	}
	accept, reject := decisions("requester", "accept"), decisions("requester", "reject")
	m.put("core.requester_accept_ratio", "ratio", ratio{accept, accept + reject})
	promote, keep := decisions("responder", "promote"), decisions("responder", "reject")
	m.put("core.responder_promote_ratio", "ratio", ratio{promote, promote + keep})
}

// fanoutHits is the share of ICP fan-outs in which some peer answered
// that it holds the document.
func fanoutHits(traces []*obs.Trace) ratio {
	var r ratio
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if sp.Stage != obs.StageICPFanout {
				continue
			}
			r.Den++
			if h, err := strconv.Atoi(sp.Attrs.Get("hits")); err == nil && h > 0 {
				r.Num++
			}
		}
	}
	return r
}

// selfTimes matches each request span of p with its node's front-door
// trace and returns every matched request's self time (the span minus
// the stages the node recorded inside it, microseconds) and, per stage,
// the stage's total time as a share of the matched requests' time.
func selfTimes(p *phase, traces []*obs.Trace) ([]float64, map[string]ratio) {
	front := make(map[string]*obs.Trace, len(traces))
	for _, tr := range traces {
		if tr.Hop == 0 && tr.TraceID != "" {
			front[tr.TraceID] = tr
		}
	}
	var self []float64
	busy := make(map[string]float64)
	var total float64
	for _, sp := range p.spans {
		tr, ok := front[sp.traceID]
		if !ok {
			continue
		}
		offset := tr.Start.Sub(p.start) - sp.start
		children := make([]interval, 0, len(tr.Spans))
		for _, st := range tr.Spans {
			from := offset + time.Duration(st.StartUS)*time.Microsecond
			children = append(children, interval{from, from + time.Duration(st.DurUS)*time.Microsecond})
			busy[st.Stage] += float64(st.DurUS)
		}
		self = append(self, float64(selfTime(interval{0, sp.dur}, children))/float64(time.Microsecond))
		total += float64(sp.dur) / float64(time.Microsecond)
	}
	shares := make(map[string]ratio, len(busy))
	for _, st := range []string{obs.StageLocalLookup, obs.StageICPFanout, obs.StageRemoteFetch, obs.StageOriginFetch} {
		shares[st] = ratio{busy[st], total}
	}
	return self, shares
}
