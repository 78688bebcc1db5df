package netnode

// Keep-alive transport tests: pooled fetch conns survive between
// exchanges, a conn the responder closed is replaced by one quiet redial,
// shutdown never waits out an idle conn, and the pool follows topology
// changes.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/health"
	"eacache/internal/hproto"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// idleConns counts the pooled conns to addr.
func (p *connPool) idleConns(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// count returns how many accepted conns are open.
func (s *servedConns) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.busy)
}

// slowICP is an ICP timeout no loaded test host reaches: these tests
// need every remote hit to be found, and a hit ends the wait early.
const slowICP = 5 * time.Second

// startObservedPair starts a responder holding nothing and a requester
// with telemetry (for the dial and reuse counters) peered with it.
func startObservedPair(t *testing.T, responderCfg Config) (requester, responder *Node) {
	t.Helper()
	if responderCfg.ID == "" {
		responderCfg.ID = "responder"
	}
	responder = startChaosNode(t, responderCfg)
	requester = startChaosNode(t, Config{
		ID: "requester", Scheme: core.EA{}, ICPTimeout: slowICP, Obs: obs.New("requester", 64),
	})
	requester.SetPeers([]Peer{{ICP: responder.ICPAddr(), HTTP: responder.HTTPAddr()}})
	return requester, responder
}

// seed puts url into n's cache so a peer's request for it is a remote hit.
func seed(t *testing.T, n *Node, url string) {
	t.Helper()
	if !n.putIfFits(cache.Document{URL: url, Size: 1024}) {
		t.Fatalf("could not seed %s on %s", url, n.ID())
	}
}

func remoteHit(t *testing.T, n *Node, url string) {
	t.Helper()
	res, err := n.Request(url, 1024)
	if err != nil {
		t.Fatalf("request %s: %v", url, err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("request %s: outcome %v, want remote hit", url, res.Outcome)
	}
}

// TestStaleConnRedialsOnce: the responder closes the pooled conn between
// two fetches — by idling it out, or by restarting on the same address.
// The second fetch must succeed through exactly one fresh dial, with no
// client error, no retry, no peer failure and no breaker evidence.
func TestStaleConnRedialsOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		close func(t *testing.T, responder *Node) *Node
	}{
		{
			name: "idle-timeout",
			// The responder closes conns idle for its FetchTimeout;
			// the requester's default keeps reusing them far longer.
			cfg: Config{FetchTimeout: 100 * time.Millisecond},
			close: func(t *testing.T, responder *Node) *Node {
				waitFor(t, 2*time.Second, "responder idle close", func() bool { return responder.served.count() == 0 })
				return responder
			},
		},
		{
			name: "restart",
			close: func(t *testing.T, responder *Node) *Node {
				if err := responder.Close(); err != nil {
					t.Fatal(err)
				}
				return startChaosNode(t, Config{
					ID:       "responder-2",
					ICPAddr:  responder.ICPAddr().String(),
					HTTPAddr: responder.HTTPAddr(),
				})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			requester, responder := startObservedPair(t, tc.cfg)
			peer := responder.HTTPAddr()
			seed(t, responder, "http://stale.example.edu/a")
			remoteHit(t, requester, "http://stale.example.edu/a")
			if got := requester.pool.idleConns(peer); got != 1 {
				t.Fatalf("pooled conns after first fetch = %d, want 1", got)
			}

			responder = tc.close(t, responder)
			seed(t, responder, "http://stale.example.edu/b")
			remoteHit(t, requester, "http://stale.example.edu/b")

			om := requester.om
			if d, r := om.fetchDials.Value(), om.fetchReuses.Value(); d != 2 || r != 1 {
				t.Fatalf("dials = %d, reuses = %d; want 2 dials (first fetch + one redial) and 1 reuse", d, r)
			}
			rb := requester.Robustness()
			if rb.PeerFailures != 0 || rb.Retries != 0 {
				t.Fatalf("stale redial leaked into robustness counters: %+v", rb)
			}
			st := requester.health.Status(peer)
			if st.State != health.Healthy || st.Failures != 0 {
				t.Fatalf("breaker touched by the stale redial: %+v", st)
			}
			if got := requester.pool.idleConns(peer); got != 1 {
				t.Fatalf("pooled conns after the redial = %d, want 1", got)
			}
		})
	}
}

// TestCloseWithIdleConnsIsPrompt: an origin and a responder hold idle
// served conns, and two requesters hold idle pooled conns to them.
// Draining a requester closes its pooled conns at once (the responders
// see them go without waiting out their idle timeout), and closing each
// server returns at once too; nothing leaks a goroutine.
func TestCloseWithIdleConnsIsPrompt(t *testing.T) {
	checkGoroutines(t)
	const fetchTimeout = 4 * time.Second
	const prompt = fetchTimeout / 4
	origin := startOrigin(t)
	responder := startChaosNode(t, Config{ID: "responder", FetchTimeout: fetchTimeout})
	seed(t, responder, "http://close.example.edu/hit")
	requesters := make([]*Node, 2)
	for i := range requesters {
		r := startChaosNode(t, Config{
			ID: fmt.Sprintf("requester-%d", i), Scheme: core.AdHoc{},
			OriginAddr: origin.Addr(), FetchTimeout: fetchTimeout, ICPTimeout: slowICP,
		})
		r.SetPeers([]Peer{{ICP: responder.ICPAddr(), HTTP: responder.HTTPAddr()}})
		remoteHit(t, r, "http://close.example.edu/hit")
		if res, err := r.Request("http://close.example.edu/miss", 1024); err != nil || res.Outcome != metrics.Miss {
			t.Fatalf("origin fetch: %+v, %v", res, err)
		}
		if r.pool.idleConns(responder.HTTPAddr()) != 1 || r.pool.idleConns(origin.Addr()) != 1 {
			t.Fatal("requester holds no idle pooled conns; the test would prove nothing")
		}
		requesters[i] = r
	}
	served := func(want int) func() bool {
		return func() bool { return responder.served.count() == want && origin.served.count() == want }
	}
	waitFor(t, prompt, "idle served conns", served(2))

	timed := func(name string, close func() error) {
		t.Helper()
		start := time.Now()
		if err := close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if took := time.Since(start); took > prompt {
			t.Fatalf("%s took %v, want under %v", name, took, prompt)
		}
	}
	timed("requester Drain (idle pooled conns)", func() error { return requesters[0].Drain(fetchTimeout) })
	waitFor(t, prompt, "drained requester's pooled conns closed", served(1))
	timed("origin Close (idle served conn)", origin.Close)
	timed("responder Close (idle served conn)", responder.Close)
	timed("requester Close", requesters[1].Close)
}

// TestUncleanExchangeIsNotPooled: only a conn whose response was read to
// its framed end with nothing left over goes back to the pool.
func TestUncleanExchangeIsNotPooled(t *testing.T) {
	checkGoroutines(t)
	for _, tc := range []struct {
		name   string
		reply  string
		ok     bool
		pooled int
	}{
		{"clean", "abcd", true, 1},
		{"trailing bytes", "abcdjunk", true, 0},
		{"truncated body", "ab", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				if _, err := hproto.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				_, _ = fmt.Fprintf(c, "EAC/1.0 200 OK\r\nX-Cache-Expiration-Age: 5\r\nContent-Length: 4\r\n\r\n%s", tc.reply)
			}()
			n := startChaosNode(t, Config{ID: "framing"})
			size, _, _, err := n.fetchFrom(nil, ln.Addr().String(), "http://framing.example.edu/", 4, 0, false)
			if tc.ok && (err != nil || size != 4) {
				t.Fatalf("fetch = %d, %v; want 4 bytes", size, err)
			}
			if !tc.ok && !errors.Is(err, hproto.ErrTruncatedBody) {
				t.Fatalf("fetch error = %v, want ErrTruncatedBody", err)
			}
			if got := n.pool.idleConns(ln.Addr().String()); got != tc.pooled {
				t.Fatalf("pooled conns = %d, want %d", got, tc.pooled)
			}
			n.pool.flush(ln.Addr().String())
		})
	}
}

// syncBuffer is a bytes.Buffer safe for a logger writing from serve
// goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClientClosingIdleConnLogsNothing: a requester hanging up between
// requests — after an exchange, or before sending anything — is the
// normal end of a keep-alive conn, not a bad request.
func TestClientClosingIdleConnLogsNothing(t *testing.T) {
	checkGoroutines(t)
	var logs syncBuffer
	n := startChaosNode(t, Config{ID: "quiet", Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	after, err := net.Dial("tcp", n.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := hproto.WriteRequest(after, hproto.Request{URL: "http://quiet.example.edu/x"}); err != nil {
		t.Fatal(err)
	}
	resp, err := hproto.ReadResponse(bufio.NewReader(after))
	if err != nil || resp.Status != hproto.StatusNotFound {
		t.Fatalf("exchange before hang-up: %+v, %v", resp, err)
	}
	before, err := net.Dial("tcp", n.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "both conns served", func() bool { return n.served.count() == 2 })
	_ = after.Close()
	_ = before.Close()
	waitFor(t, 2*time.Second, "served conns closed", func() bool { return n.served.count() == 0 })
	if out := logs.String(); out != "" {
		t.Fatalf("hang-ups logged warnings:\n%s", out)
	}
}

// TestSequentialRemoteHitsReuseOneConn: 1,000 sequential remote hits
// between two nodes open no more conns than the idle cap — conn count is
// O(peers), not O(requests).
func TestSequentialRemoteHitsReuseOneConn(t *testing.T) {
	checkGoroutines(t)
	requester, responder := startObservedPair(t, Config{Store: newStore(t, 4<<20)})
	const hits = 1000
	for i := 0; i < hits; i++ {
		seed(t, responder, fmt.Sprintf("http://seq.example.edu/%d", i))
	}
	for i := 0; i < hits; i++ {
		remoteHit(t, requester, fmt.Sprintf("http://seq.example.edu/%d", i))
	}
	dials, reuses := requester.om.fetchDials.Value(), requester.om.fetchReuses.Value()
	if dials > maxIdlePerAddr {
		t.Fatalf("%d remote hits dialled %d conns, want at most the idle cap %d", hits, dials, maxIdlePerAddr)
	}
	if dials+reuses != hits {
		t.Fatalf("dials %d + reuses %d != %d exchanges", dials, reuses, hits)
	}
}

// TestPoolFlushedOnTopologyChange: a peer's idle conns are closed when
// its breaker opens, when it is ejected, and when it is removed.
func TestPoolFlushedOnTopologyChange(t *testing.T) {
	checkGoroutines(t)
	responder := startChaosNode(t, Config{ID: "responder"})
	requester := startChaosNode(t, Config{
		ID: "requester", Scheme: core.EA{}, ICPTimeout: slowICP,
		Health:     health.Config{DeadAfter: 1, ProbeBase: time.Hour},
		EjectAfter: time.Hour,
	})
	peer := responder.HTTPAddr()
	requester.SetPeers([]Peer{{ICP: responder.ICPAddr(), HTTP: peer}})
	pooled := func() int { return requester.pool.idleConns(peer) }

	seed(t, responder, "http://flush.example.edu/1")
	remoteHit(t, requester, "http://flush.example.edu/1")
	if pooled() != 1 {
		t.Fatalf("pooled conns = %d, want 1", pooled())
	}
	requester.health.ReportFailure(peer)
	if pooled() != 0 {
		t.Fatal("breaker opened but the peer's pool was not flushed")
	}

	// An exchange that started before the breaker opened may still
	// return its conn; ejection must flush it.
	pc, err := requester.dialConn(peer)
	if err != nil {
		t.Fatal(err)
	}
	requester.pool.put(peer, pc)
	requester.sweepMembership(time.Now().Add(2 * time.Hour))
	if requester.ActivePeers() != 0 {
		t.Fatal("dead peer not ejected")
	}
	if pooled() != 0 {
		t.Fatal("peer ejected but its pool was not flushed")
	}

	requester.health.ReportSuccess(peer)
	requester.sweepMembership(time.Now())
	if requester.ActivePeers() != 1 {
		t.Fatal("peer not readmitted")
	}
	seed(t, responder, "http://flush.example.edu/2")
	remoteHit(t, requester, "http://flush.example.edu/2")
	if pooled() != 1 {
		t.Fatalf("pooled conns after readmission = %d, want 1", pooled())
	}
	if err := requester.RemovePeer(peer); err != nil {
		t.Fatal(err)
	}
	if pooled() != 0 {
		t.Fatal("peer removed but its pool was not flushed")
	}
}
