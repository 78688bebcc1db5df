package metrics_test

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/health"
	"eacache/internal/hproto"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
)

// A RobustnessSnapshot is produced by a live node reading its event
// counters, so these tests drive real nodes through the events and read
// the snapshot back. The nodes run without telemetry: the counters must
// count all the same.

func startNode(t *testing.T, cfg netnode.Config) *netnode.Node {
	t.Helper()
	store, err := cache.New(cache.Config{Capacity: 1 << 20, ExpirationHorizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cfg.ICPAddr = "127.0.0.1:0"
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.Store = store
	cfg.Scheme = core.AdHoc{}
	n, err := netnode.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func startOrigin(t *testing.T) string {
	t.Helper()
	o, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = o.Close() })
	return o.Addr()
}

// deadTCPAddr returns an address nothing listens on.
func deadTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// exchange sends one hand-written peer request head — one the typed
// client never writes — and reads the response head. It returns errors
// instead of failing the test, so goroutines may call it.
func exchange(addr, url, headers string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "GET %s EAC/1.0\r\n%s\r\n", url, headers); err != nil {
		return err
	}
	_, err = hproto.ReadResponse(bufio.NewReader(conn))
	return err
}

// TestRobustnessCounters moves each counter by a known amount and checks
// the whole snapshot, so an event counted into the wrong field, or twice,
// shows up. Every miss elects one single-flight leader.
func TestRobustnessCounters(t *testing.T) {
	const warm, cold = "http://robust.example.edu/warm.html", "http://robust.example.edu/cold.html"
	n := startNode(t, netnode.Config{
		ID:         "robust",
		OriginAddr: startOrigin(t),
		ICPTimeout: 50 * time.Millisecond,
		Health:     health.Config{DeadAfter: 1, ProbeBase: time.Minute},
	})
	if _, err := n.Request(warm, 1024); err != nil {
		t.Fatal(err)
	}

	// A peer that never answers ICP: the fan-out for a cold URL times
	// out, the silence is one peer failure that opens the breaker, and
	// the origin serves the request.
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	n.SetPeers([]netnode.Peer{{ICP: silent.LocalAddr().(*net.UDPAddr), HTTP: deadTCPAddr(t)}})
	if _, err := n.Request(cold, 1024); err != nil {
		t.Fatal(err)
	}

	// Two garbage trace contexts and one negative requester age from a
	// peer, all served from the cache.
	for _, h := range []string{
		"X-Trace-Context: garbage\r\n",
		"X-Trace-Context: more-garbage\r\n",
		"X-Cache-Expiration-Age: -5\r\n",
	} {
		if err := exchange(n.HTTPAddr(), warm, h); err != nil {
			t.Fatal(err)
		}
	}

	got := n.Robustness()
	want := metrics.RobustnessSnapshot{
		PeerFailures: 1, BreakerOpens: 1, TraceClamps: 2, WireClamps: 1,
		LeaderElections: 2,
	}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}

	// A dead origin: the miss spends its second attempt as a retry and
	// then fails.
	s := startNode(t, netnode.Config{
		ID:            "dead-origin",
		OriginAddr:    deadTCPAddr(t),
		FetchTimeout:  200 * time.Millisecond,
		FetchAttempts: 2,
	})
	if _, err := s.Request(cold, 1024); err == nil {
		t.Fatal("fetch from a dead origin succeeded")
	}
	got = s.Robustness()
	want = metrics.RobustnessSnapshot{Retries: 1, LeaderElections: 1}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

// TestRobustnessConcurrent lands clamps from 8 concurrent peers and
// checks that none is lost (run it under -race).
func TestRobustnessConcurrent(t *testing.T) {
	const url = "http://robust.example.edu/hot.html"
	n := startNode(t, netnode.Config{ID: "robust", OriginAddr: startOrigin(t)})
	if _, err := n.Request(url, 1024); err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				h := fmt.Sprintf("X-Cache-Expiration-Age: -%d\r\nX-Trace-Context: garbage/%d\r\n", i+1, j)
				if err := exchange(n.HTTPAddr(), url, h); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := n.Robustness()
	if got.TraceClamps != senders*each || got.WireClamps != senders*each {
		t.Fatalf("snapshot = %+v", got)
	}
}
