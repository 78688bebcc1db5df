package netnode

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eacache/internal/core"
	"eacache/internal/health"
	"eacache/internal/hproto"
	"eacache/internal/obs"
	"eacache/internal/proxy"
)

// scrapeCounters renders r in the Prometheus text format, as /metrics
// serves it, and returns every integer-valued series by its exposition
// key (name plus label block).
func scrapeCounters(t *testing.T, r *obs.Registry) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]int64)
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			series[line[:i]] = v
		}
	}
	return series
}

// assertCountersMatchScrape checks every Robustness and DigestStats field
// against the /metrics series (or sum of series) it is derived from, and
// returns the fields by name.
func assertCountersMatchScrape(t *testing.T, n *Node, tel *obs.Telemetry) map[string]int64 {
	t.Helper()
	got := scrapeCounters(t, tel.Registry)
	rb, dg := n.Robustness(), n.DigestStats()
	fields := make(map[string]int64)
	for _, c := range []struct {
		field  string
		value  int64
		series []string
	}{
		{"PeerFailures", rb.PeerFailures, []string{"eac_peer_failures_total"}},
		{"Retries", rb.Retries, []string{"eac_retries_total"}},
		{"Fallbacks", rb.Fallbacks, []string{"eac_fallbacks_total"}},
		{"BreakerOpens", rb.BreakerOpens, []string{"eac_breaker_opens_total"}},
		{"BreakerCloses", rb.BreakerCloses, []string{"eac_breaker_closes_total"}},
		{"WireClamps", rb.WireClamps, []string{"eac_wire_age_clamps_total"}},
		{"TraceClamps", rb.TraceClamps, []string{"eac_trace_context_clamps_total"}},
		{"CoalescedFollowers", rb.CoalescedFollowers, []string{"eac_coalesced_followers_total"}},
		{"LeaderElections", rb.LeaderElections, []string{
			`eac_coalesce_leader_elections_total{kind="initial"}`,
			`eac_coalesce_leader_elections_total{kind="retry"}`}},
		{"LeaderRetries", rb.LeaderRetries, []string{`eac_coalesce_leader_elections_total{kind="retry"}`}},
		{"Sheds", rb.Sheds, []string{"eac_requests_shed_total"}},
		{"OriginWaits", rb.OriginWaits, []string{"eac_origin_sem_waits_total"}},
		{"Ejections", rb.Ejections, []string{`eac_membership_events_total{event="ejection"}`}},
		{"Readmissions", rb.Readmissions, []string{`eac_membership_events_total{event="readmission"}`}},
		{"MigratedDocs", rb.MigratedDocs, []string{`eac_migration_docs_total{result="transferred"}`}},
		{"MigratedBytes", rb.MigratedBytes, []string{"eac_migration_bytes_total"}},
		{"MigrationFailures", rb.MigrationFailures, []string{`eac_migration_docs_total{result="failed"}`}},

		{"DeltasServed", dg.DeltasServed, []string{`eac_digest_transfers_total{dir="served",kind="delta"}`}},
		{"FullsServed", dg.FullsServed, []string{`eac_digest_transfers_total{dir="served",kind="full"}`}},
		{"DeltasApplied", dg.DeltasApplied, []string{`eac_digest_transfers_total{dir="applied",kind="delta"}`}},
		{"FullsApplied", dg.FullsApplied, []string{`eac_digest_transfers_total{dir="applied",kind="full"}`}},
		{"DeltaBytesServed", dg.DeltaBytesServed, []string{`eac_digest_bytes_total{kind="delta"}`}},
		{"FullBytesServed", dg.FullBytesServed, []string{`eac_digest_bytes_total{kind="full"}`}},
		{"RebuildEscapes", dg.RebuildEscapes, []string{"eac_digest_rebuild_escapes_total"}},
		{"StaleServed", dg.StaleServed, []string{"eac_digest_stale_served_total"}},
		{"Fetches", dg.Fetches, []string{"eac_digest_fetches_total"}},
		{"FetchFailures", dg.FetchFailures, []string{"eac_digest_fetch_failures_total"}},
	} {
		fields[c.field] = c.value
		var sum int64
		for _, s := range c.series {
			v, ok := got[s]
			if !ok {
				t.Errorf("%s: series %s missing from the scrape", n.id, s)
			}
			sum += v
		}
		if c.value != sum {
			t.Errorf("%s: %s = %d, scrape %v = %d", n.id, c.field, c.value, c.series, sum)
		}
	}
	return fields
}

// rawExchange sends one hand-written hproto request head and reads the
// response head, so a test can put on the wire what the typed client
// never writes (a negative age, a garbage trace context). It returns
// errors instead of failing the test, so goroutines may call it.
func rawExchange(addr, head string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(head)); err != nil {
		return err
	}
	_, err = hproto.ReadResponse(bufio.NewReader(conn))
	return err
}

// TestCountersMatchScrape pins "count once": every Robustness and
// DigestStats field is read from the counter /metrics exposes, so the two
// can never drift. Telemetry-on nodes go through a coalesced herd, a
// shed, a timed-out origin wait, a retried upstream fetch, a breaker
// open and close, a clamped wire age, concurrent trace-context clamps
// and a digest full-then-delta sync with a stale serve; afterwards every
// field must equal its series, and each of those events must have moved
// its counter.
func TestCountersMatchScrape(t *testing.T) {
	checkGoroutines(t)
	type observed struct {
		n   *Node
		tel *obs.Telemetry
	}
	var nodes []observed
	start := func(cfg Config) *Node {
		cfg.Obs = obs.New(cfg.ID, 64)
		n := startChaosNode(t, cfg)
		nodes = append(nodes, observed{n, cfg.Obs})
		return n
	}

	// A herd coalesces behind one leader; meanwhile the front door,
	// bounded at the herd's leader plus followers, sheds one request.
	const herd = 16
	gated := startGatedOrigin(t)
	h := start(Config{
		ID:            "herd",
		OriginAddr:    gated.ln.Addr().String(),
		MaxInflight:   herd,
		ShedQueueWait: 5 * time.Millisecond,
	})
	const hot = "http://count.example.edu/hot.html"
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h.Request(hot, 2048); err != nil {
				errs <- err
			}
		}()
	}
	waitUntil(t, func() bool { return h.Robustness().CoalescedFollowers == herd-1 })
	if _, err := h.Request("http://count.example.edu/other.html", 1024); err == nil {
		t.Fatal("request past the in-flight bound was admitted")
	}
	close(gated.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Concurrent clamps on the same node, scraped while they land: 8
	// peers each send garbage trace contexts, and one sends a negative
	// requester age.
	const clampers, clampsEach = 8, 25
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				_ = nodes[0].tel.Registry.WritePrometheus(&buf)
			}
		}
	}()
	clampErrs := make(chan error, clampers+1)
	for i := 0; i < clampers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < clampsEach; j++ {
				head := fmt.Sprintf("GET %s EAC/1.0\r\nX-Cache-Expiration-Age: inf\r\nX-Trace-Context: garbage/%d/%d\r\n\r\n", hot, i, j)
				if err := rawExchange(h.HTTPAddr(), head); err != nil {
					clampErrs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-scraped
	if err := rawExchange(h.HTTPAddr(), "GET "+hot+" EAC/1.0\r\nX-Cache-Expiration-Age: -5\r\n\r\n"); err != nil {
		clampErrs <- err
	}
	close(clampErrs)
	for err := range clampErrs {
		t.Fatal(err)
	}
	if rb := h.Robustness(); rb.TraceClamps != clampers*clampsEach || rb.WireClamps != 1 {
		t.Fatalf("clamps = %d trace, %d wire; want %d, 1", rb.TraceClamps, rb.WireClamps, clampers*clampsEach)
	}

	// An upstream that stays saturated past the fetch budget: one origin
	// wait, counted though it never got its slot. The origin is dead, so
	// a real miss spends its second attempt as a retry.
	s := start(Config{
		ID:                "saturated",
		OriginAddr:        deadTCPAddr(t),
		OriginConcurrency: 1,
		FetchTimeout:      30 * time.Millisecond,
		FetchAttempts:     2,
	})
	s.originSem <- struct{}{}
	if err := s.acquireUpstream(nil); err == nil {
		t.Fatal("saturated acquire succeeded")
	}
	<-s.originSem
	if _, err := s.Request("http://count.example.edu/dead.html", 1024); err == nil {
		t.Fatal("fetch from a dead origin succeeded")
	}

	// A lying peer: its failed fetch opens the breaker and the request
	// falls back to the origin; a success report closes the breaker.
	origin := startOrigin(t)
	b := start(Config{
		ID:         "breaker",
		OriginAddr: origin.Addr(),
		ICPTimeout: 500 * time.Millisecond,
		Health:     health.Config{DeadAfter: 1, ProbeBase: time.Minute},
	})
	liar := fakeHitPeer(t, deadTCPAddr(t))
	b.SetPeers([]Peer{liar})
	if _, err := b.Request("http://count.example.edu/lie.html", 1024); err != nil {
		t.Fatalf("request failed instead of degrading to origin: %v", err)
	}
	b.health.ReportSuccess(liar.HTTP)

	// A digest pair: first contact is a full transfer, a refresh after
	// the trust window rides a delta, and the miss that crosses the
	// window is answered from the stale replica.
	clk := newFakeClock()
	digestNode := func(id string) *Node {
		return start(Config{
			ID:            id,
			Scheme:        core.EA{},
			OriginAddr:    origin.Addr(),
			Location:      proxy.LocateDigest,
			Digest:        proxy.DigestConfig{Expected: 64, FPRate: 0.01, RebuildEvery: 1},
			DigestRefresh: time.Hour,
			Now:           clk.Now,
			ICPTimeout:    500 * time.Millisecond,
		})
	}
	da, db := digestNode("digest-a"), digestNode("digest-b")
	mesh(da, db)
	if _, err := db.Request("http://count.example.edu/prime", 400); err != nil {
		t.Fatal(err)
	}
	if _, err := da.Request("http://count.example.edu/new", 400); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	if _, err := db.Request("http://count.example.edu/after-stale", 400); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "delta refresh", func() bool { return db.DigestStats().DeltasApplied >= 1 })

	moved := map[string]bool{}
	for _, o := range nodes {
		for field, v := range assertCountersMatchScrape(t, o.n, o.tel) {
			if v > 0 {
				moved[field] = true
			}
		}
	}
	for _, field := range []string{
		"PeerFailures", "Retries", "Fallbacks", "BreakerOpens", "BreakerCloses",
		"WireClamps", "TraceClamps", "CoalescedFollowers", "LeaderElections",
		"Sheds", "OriginWaits", "FullsServed", "DeltasServed", "FullsApplied",
		"DeltasApplied", "FullBytesServed", "DeltaBytesServed", "StaleServed", "Fetches",
	} {
		if !moved[field] {
			t.Errorf("no event moved %s", field)
		}
	}
}
