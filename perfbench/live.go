package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/obs"
)

// liveSpec shapes a workload on live nodes.
type liveSpec struct {
	nodes int
	// scale is the BU-like trace's scale (0.1 is 57,577 records).
	scale float64
	// memShare is the group's total memory tier as a share of the
	// catalogue's bytes.
	memShare float64
	// disk adds a disk tier holding the whole catalogue, with the
	// default EA demotion rule, and a journal in a data directory.
	disk bool
	// warmCap bounds the warm-up pass's time; 0 leaves it unbounded.
	warmCap time.Duration
	// partialPass ends the measured phase when its time is up, in the
	// middle of a pass, instead of at the end of the pass in progress.
	partialPass bool
}

// ringCap bounds each traced node's trace ring. A traced run keeps the
// most recent traces of the measured phase; stage percentiles and
// self times are taken over those.
const ringCap = 1 << 15

// liveGroup is an origin plus a group of nodes, all in this process and
// all talking over loopback sockets.
type liveGroup struct {
	spec   liveSpec
	dir    string
	origin *netnode.OriginServer
	nodes  []*netnode.Node
	tels   []*obs.Telemetry // nil entries when untraced
}

func (g *liveGroup) diskDir(i int) string { return filepath.Join(g.dir, fmt.Sprintf("n%d", i), "disk") }
func (g *liveGroup) dataDir(i int) string { return filepath.Join(g.dir, fmt.Sprintf("n%d", i), "data") }

// startLive starts the origin and the nodes and wires every node to
// every other as ICP siblings. dir must be empty or absent.
func startLive(spec liveSpec, in *input, dir string, traced bool) (*liveGroup, error) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	g := &liveGroup{spec: spec, dir: dir, origin: origin}
	mem := int64(spec.memShare*float64(in.catalogueBytes)) / int64(spec.nodes)
	for i := 0; i < spec.nodes; i++ {
		id := fmt.Sprintf("n%d", i)
		store, err := cache.NewSharded(cache.ShardedConfig{
			Capacity:         mem,
			ExpirationWindow: cache.DefaultExpirationWindow,
		})
		if err != nil {
			g.close()
			return nil, err
		}
		cfg := netnode.Config{
			ID:         id,
			ICPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			Store:      store,
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
		}
		if spec.disk {
			cfg.DiskDir, cfg.DiskCapacity = g.diskDir(i), in.catalogueBytes
			cfg.DataDir = g.dataDir(i)
			// Checkpoints rotate the journal; keeping them out of the
			// run leaves journal growth a clean per-request figure.
			cfg.SnapshotInterval = time.Hour
		}
		var tel *obs.Telemetry
		if traced {
			tel = obs.New(id, ringCap)
			tel.SetTraceSampling(1)
			cfg.Obs = tel
		}
		nd, err := netnode.New(cfg)
		if err != nil {
			g.close()
			return nil, err
		}
		g.nodes = append(g.nodes, nd)
		g.tels = append(g.tels, tel)
	}
	for i, nd := range g.nodes {
		var peers []netnode.Peer
		for j, other := range g.nodes {
			if i != j {
				peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr(), Name: other.ID()})
			}
		}
		nd.SetPeers(peers)
	}
	return g, nil
}

// close stops every node and the origin, waiting for their goroutines.
func (g *liveGroup) close() error {
	var errs []error
	for _, nd := range g.nodes {
		errs = append(errs, nd.Close())
	}
	g.nodes = nil
	errs = append(errs, g.origin.Close())
	return errors.Join(errs...)
}

// verifyDisk reopens each closed node's blob directory and re-reads
// every blob through the checksum-verifying reader.
func (g *liveGroup) verifyDisk(capacity int64) (blob.VerifyReport, error) {
	var total blob.VerifyReport
	for i := 0; i < g.spec.nodes; i++ {
		bs, err := blob.Open(blob.Config{Dir: g.diskDir(i), Capacity: capacity})
		if err != nil {
			return total, err
		}
		rep := bs.VerifyAll()
		if err := bs.Close(); err != nil {
			return total, err
		}
		total.Verified += rep.Verified
		total.Failed += rep.Failed
	}
	return total, nil
}

// reqSpan is the benchmark's own span around one Node.Request call.
type reqSpan struct {
	start   time.Duration // from the phase start
	dur     time.Duration
	node    int
	outcome metrics.Outcome // 0 when the request failed
	traceID string
}

// phase is one closed-loop run of the clients over the trace.
type phase struct {
	start time.Time
	wall  time.Duration
	tally
	// lat holds every completed request's latency in microseconds.
	lat []float64
	// spans holds every request's span when the phase keeps them.
	spans []reqSpan
	// attempts counts requests sent, before their outcome is known.
	attempts int64
	// sizeMismatch counts results whose size is not their URL's size;
	// badOutcome counts results with no valid outcome.
	sizeMismatch int64
	badOutcome   int64
}

// until says when a phase ends.
type until struct {
	// records ends the phase after this many records (0: no limit).
	records int64
	// after ends the phase once it has run this long (0: no limit).
	after time.Duration
	// wholePasses lets the phase run on from after to the end of the
	// trace pass in progress, so that it replays whole passes only.
	wholePasses bool
}

// drive runs the closed loop: clients goroutines, each sending its next
// request only after the previous one returned, take records in order
// from one shared cursor, wrapping around the trace as often as needed,
// and send each to the node its client routes to.
func (g *liveGroup) drive(in *input, route []int, clients int, u until, keepSpans bool) *phase {
	var cursor, end atomic.Int64
	n := int64(len(in.recs))
	noEnd := int64(math.MaxInt64)
	if u.records > 0 {
		noEnd = u.records
	}
	end.Store(noEnd)
	parts := make([]phase, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if i >= end.Load() {
					return
				}
				t0 := time.Now()
				if u.after > 0 && t0.Sub(start) >= u.after {
					if !u.wholePasses {
						return
					}
					// The first client past the deadline ends the phase
					// at the end of its record's pass; every record
					// taken before it lies below that end and is sent.
					end.CompareAndSwap(noEnd, (i/n+1)*n)
					if i >= end.Load() {
						return
					}
				}
				rec := &in.recs[i%n]
				node := route[i%n]
				p.attempts++
				res, err := g.nodes[node].Request(rec.URL, rec.Size)
				dur := time.Since(t0)
				sp := reqSpan{start: t0.Sub(start), dur: dur, node: node, traceID: res.TraceID}
				switch {
				case err != nil:
					p.failed++
				case res.Outcome < metrics.LocalHit || res.Outcome > metrics.Miss:
					p.badOutcome++
					p.failed++
				default:
					if res.Size != rec.Size {
						p.sizeMismatch++
					}
					p.record(res.Outcome, rec.Size)
					p.lat = append(p.lat, float64(dur)/float64(time.Microsecond))
					sp.outcome = res.Outcome
				}
				if keepSpans {
					p.spans = append(p.spans, sp)
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &phase{start: start, wall: time.Since(start)}
	for _, p := range parts {
		out.tally.add(p.tally)
		out.attempts += p.attempts
		out.lat = append(out.lat, p.lat...)
		out.spans = append(out.spans, p.spans...)
		out.sizeMismatch += p.sizeMismatch
		out.badOutcome += p.badOutcome
	}
	return out
}

// clients is the closed loop's concurrency: one client per CPU.
func clients() int { return runtime.NumCPU() }

// liveRun is one set-up group plus what its phases observed.
type liveRun struct {
	in     *input
	route  []int
	g      *liveGroup
	setup  time.Duration
	phases []*phase
}

// setUpLive generates the trace, starts the group and replays one
// warm-up pass; the elapsed time is the run's set-up time.
func setUpLive(spec liveSpec, seed uint64, dir string, traced bool) (*liveRun, error) {
	t0 := time.Now()
	in, err := makeInput(spec.scale, seed)
	if err != nil {
		return nil, err
	}
	route, err := in.routes(spec.nodes)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	g, err := startLive(spec, in, dir, traced)
	if err != nil {
		return nil, err
	}
	r := &liveRun{in: in, route: route, g: g}
	r.phases = append(r.phases, g.drive(in, route, clients(), until{records: int64(len(in.recs)), after: spec.warmCap}, false))
	r.setup = time.Since(t0)
	return r, nil
}

// measure runs the timed phase: whole passes over the trace until d has
// elapsed, or just d when the spec allows a partial pass.
func (r *liveRun) measure(d time.Duration, keepSpans bool) (*phase, procDelta, error) {
	before, err := sampleProc()
	if err != nil {
		return nil, procDelta{}, err
	}
	p := r.g.drive(r.in, r.route, clients(), until{after: d, wholePasses: !r.g.spec.partialPass}, keepSpans)
	after, err := sampleProc()
	if err != nil {
		return nil, procDelta{}, err
	}
	r.phases = append(r.phases, p)
	return p, before.to(after), nil
}

// finish closes the group and checks what every phase returned: sizes
// match their URLs, every result has an outcome, the origin served no
// more fetches than there were misses, and (with a disk tier) every
// blob left behind verifies.
func (r *liveRun) finish(ck *checks) error {
	var all tally
	var mismatch, bad int64
	for _, p := range r.phases {
		all.add(p.tally)
		mismatch += p.sizeMismatch
		bad += p.badOutcome
	}
	fetches := r.g.origin.Fetches()
	err := r.g.close()
	ck.expect(mismatch == 0, "%d results had a size other than their URL's", mismatch)
	ck.expect(bad == 0, "%d results had no valid outcome", bad)
	ck.expect(fetches <= all.Misses, "origin served %d fetches for %d misses", fetches, all.Misses)
	if err != nil {
		return fmt.Errorf("close group: %w", err)
	}
	if r.g.spec.disk {
		rep, err := r.g.verifyDisk(r.in.catalogueBytes)
		if err != nil {
			return fmt.Errorf("verify disk tier: %w", err)
		}
		ck.expect(rep.Failed == 0 && rep.Verified > 0,
			"disk tier after close: %d blobs verified, %d failed", rep.Verified, rep.Failed)
	}
	return nil
}
