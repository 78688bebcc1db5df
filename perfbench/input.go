package main

import (
	"fmt"
	"time"

	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/trace"
)

// input is a workload's generated reference stream. Every record of a
// URL carries that URL's one size, so a result's size can be checked
// against its request.
type input struct {
	recs []trace.Record
	// size is each URL's size: its first non-zero size in the trace, or
	// trace.DefaultDocSize when every record of it is zero.
	size map[string]int64
	// catalogueBytes is the sum of size over the distinct URLs.
	catalogueBytes int64
}

// makeInput generates the BU-like trace at scale with the given seed.
// The program under test sees only these records.
func makeInput(scale float64, seed uint64) (*input, error) {
	cfg := trace.BULike()
	if scale != 1 {
		cfg = cfg.Scaled(scale)
	}
	cfg.Seed = seed
	recs, err := trace.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	if !trace.Sorted(recs) {
		trace.SortByTime(recs)
	}
	in := &input{recs: recs, size: make(map[string]int64)}
	for _, r := range recs {
		if in.size[r.URL] == 0 {
			in.size[r.URL] = r.Size
		}
	}
	for url, s := range in.size {
		if s <= 0 {
			s = trace.DefaultDocSize
			in.size[url] = s
		}
		in.catalogueBytes += s
	}
	for i := range recs {
		recs[i].Size = in.size[recs[i].URL]
	}
	return in, nil
}

// routes maps every record to the cache group.Route picks for its
// client in a group of n caches, so the live group and the simulator
// pin users to proxies the same way.
func (in *input) routes(n int) ([]int, error) {
	g, err := group.New(group.Config{Caches: n, AggregateBytes: int64(n), Scheme: core.EA{}})
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, n)
	for i, p := range g.Leaves() {
		index[p.ID()] = i
	}
	out := make([]int, len(in.recs))
	for i, r := range in.recs {
		out[i] = index[g.Route(r.Client).ID()]
	}
	return out, nil
}

// tally counts outcomes the way the paper's metrics need them.
type tally struct {
	metrics.CountersSnapshot
	// failed counts requests that returned an error.
	failed int64
}

func (t *tally) record(o metrics.Outcome, size int64) {
	t.Requests++
	t.BytesRequested += size
	switch o {
	case metrics.LocalHit:
		t.LocalHits++
		t.BytesLocal += size
	case metrics.RemoteHit:
		t.RemoteHits++
		t.BytesRemote += size
	default:
		t.Misses++
		t.BytesMissed += size
	}
}

func (t *tally) add(o tally) {
	t.CountersSnapshot.Add(o.CountersSnapshot)
	t.failed += o.failed
}

// paperMetrics are the paper's hit rate and estimated latency over the
// tallied mix.
func (t tally) paperMetrics(m *metricSet) {
	m.put("hit_rate", "ratio", ratio{float64(t.Hits()), float64(t.Requests)})
	est := metrics.PaperLatencies.EstimatedAverageLatency(t.CountersSnapshot)
	m.set("est_latency_ms", "ms", float64(est)/float64(time.Millisecond))
}

// byteHitRate is the paper's byte hit rate. It is a per-layer figure:
// the heavy-tailed sizes make it follow the seed's few largest
// documents, too far for an end-to-end bound.
func (t tally) byteHitRate(m *metricSet) {
	m.put("core.byte_hit_rate", "ratio", ratio{float64(t.BytesLocal + t.BytesRemote), float64(t.BytesRequested)})
}
