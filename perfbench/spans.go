package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"eacache/internal/obs"
)

// maxSpans caps the spans one traced run writes.
const maxSpans = 1 << 17

// spanRec is one written span. Spans of one request share Trace; Parent
// names the span that caused this one. Times are microseconds from the
// start of the measured phase.
type spanRec struct {
	ID      string  `json:"id"`
	Trace   string  `json:"trace,omitempty"`
	Parent  string  `json:"parent,omitempty"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Node    string  `json:"node,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Outcome string  `json:"outcome,omitempty"`
}

// stageLayer is the module each node stage belongs to.
var stageLayer = map[string]string{
	obs.StageLocalLookup: "cache",
	obs.StageICPFanout:   "icp",
	obs.StageDigestScan:  "icp",
	obs.StageRemoteFetch: "hproto",
	obs.StageParentFetch: "hproto",
	obs.StageOriginFetch: "hproto",
	obs.StagePlacement:   "core",
	obs.StageServe:       "hproto",
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanRecords turns the latest requests of a traced live phase, whose
// node traces the rings still hold, into about limit spans, a request
// at a time: the benchmark's span around the Node.Request call,
// then each node trace record of that request (the front-door record a
// child of the request span, a remote leg a child of the record that
// fetched it) with its stage spans. Span IDs and node names are
// prefixed with name, the phase's.
func spanRecords(name string, p *phase, traces []*obs.Trace, limit int) []spanRec {
	legs := make(map[string][]*obs.Trace, len(traces))
	for _, tr := range traces {
		legs[tr.TraceID] = append(legs[tr.TraceID], tr)
	}
	order := make([]int, len(p.spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.spans[order[a]].start < p.spans[order[b]].start })
	var groups [][]spanRec
	total := 0
	for k := len(order) - 1; k >= 0 && total < limit; k-- {
		g := requestSpans(name, order[k], p, legs)
		groups = append(groups, g)
		total += len(g)
	}
	out := make([]spanRec, 0, total)
	for k := len(groups) - 1; k >= 0; k-- {
		out = append(out, groups[k]...)
	}
	return out
}

// requestSpans is request i's span and its node trace records and
// stage spans.
func requestSpans(name string, i int, p *phase, legs map[string][]*obs.Trace) []spanRec {
	sp := p.spans[i]
	reqID := fmt.Sprintf("%s/req-%d", name, i)
	outcome := "error"
	if sp.outcome != 0 {
		outcome = sp.outcome.String()
	}
	out := []spanRec{{
		ID: reqID, Trace: sp.traceID, Layer: "netnode", Name: "Node.Request",
		Node: fmt.Sprintf("%s/n%d", name, sp.node), StartUS: micros(sp.start), DurUS: micros(sp.dur),
		Outcome: outcome,
	}}
	if sp.traceID == "" {
		return out
	}
	for _, tr := range legs[sp.traceID] {
		parent := name + "/" + tr.ParentID
		if tr.Hop == 0 {
			parent = reqID
		}
		id, node := name+"/"+tr.ID, name+"/"+tr.Node
		start := micros(tr.Start.Sub(p.start))
		out = append(out, spanRec{
			ID: id, Trace: tr.TraceID, Parent: parent, Layer: "netnode", Name: "trace-record",
			Node: node, StartUS: start, DurUS: float64(tr.DurUS), Outcome: tr.Outcome,
		})
		for j, st := range tr.Spans {
			out = append(out, spanRec{
				ID: fmt.Sprintf("%s/%d", id, j), Trace: tr.TraceID, Parent: id,
				Layer: stageLayer[st.Stage], Name: st.Stage, Node: node,
				StartUS: start + float64(st.StartUS), DurUS: float64(st.DurUS),
			})
		}
	}
	return out
}

// writeSpans writes the run's spans, one JSON object a line, to
// spans/<workload>-seed<n>.jsonl under the work directory.
func writeSpans(o opts, spans []spanRec) error {
	dir := filepath.Join(o.workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
