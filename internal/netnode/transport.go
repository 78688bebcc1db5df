package netnode

// The hproto transport keeps every fetch connection open across
// exchanges. The requester side holds a small pool of idle conns per
// upstream address (peer, parent or origin) and runs each exchange on one
// of them; the responder side serves requests on an accepted conn until
// the requester closes it, it idles past the idle timeout, or the server
// shuts down. Every message is framed by Content-Length (responses) or
// X-Size-Hint (push bodies), so a conn whose last exchange was read to
// the end is ready for the next one.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"eacache/internal/faults"
	"eacache/internal/hproto"
)

// maxIdlePerAddr caps the idle conns pooled per upstream address. More
// concurrent exchanges than this dial extra conns, which are closed when
// their exchange ends, so a node holds O(peers) idle conns whatever its
// request rate.
const maxIdlePerAddr = 8

// peerConn is one requester-side conn with its read buffer.
type peerConn struct {
	net.Conn
	br        *bufio.Reader
	idleSince time.Time
}

// close closes the conn and returns its buffer to the reader pool.
func (pc *peerConn) close() {
	_ = pc.Conn.Close()
	putReader(pc.br)
}

// roundTrip writes req (and, for a push, its SizeHint body bytes) and
// reads the response, copying its body into sink (discarding it when
// sink is nil). responded reports whether any response byte arrived
// before a failure.
func (pc *peerConn) roundTrip(addr string, req hproto.Request, sink io.Writer, deadline time.Time) (resp hproto.Response, responded bool, err error) {
	_ = pc.SetDeadline(deadline)
	if err := hproto.WriteRequest(pc, req); err != nil {
		return resp, false, err
	}
	if req.Push {
		// Bodies are synthetic zeros in this reproduction.
		if _, err := io.Copy(pc, zeroReader(req.SizeHint)); err != nil {
			return resp, false, err
		}
	}
	if _, err := pc.br.Peek(1); err != nil {
		return resp, false, fmt.Errorf("hproto: read: %w", err)
	}
	if resp, err = hproto.ReadResponse(pc.br); err != nil {
		return resp, true, err
	}
	if sink == nil {
		sink = io.Discard
	}
	if _, err := io.CopyN(sink, pc.br, resp.ContentLength); err != nil {
		return resp, true, fmt.Errorf("read body from %s: %w: %v", addr, hproto.ErrTruncatedBody, err)
	}
	return resp, true, nil
}

// connPool holds idle requester-side conns per upstream address, most
// recently used last.
type connPool struct {
	// window is how long a conn may idle and still be reused. A
	// responder closes a conn that idles for its FetchTimeout between
	// requests; the node sets window to half its own FetchTimeout, so
	// with equal timeouts it never writes into a conn the responder is
	// closing. A conn that does turn out dead is caught by the
	// stale-conn redial in exchange.
	window time.Duration

	mu     sync.Mutex
	idle   map[string][]*peerConn
	closed bool
}

func newConnPool(window time.Duration) *connPool {
	return &connPool{window: window, idle: make(map[string][]*peerConn)}
}

// get pops the most recently used idle conn to addr, or returns nil when
// none idled for less than the reuse window. Older conns are closed.
func (p *connPool) get(addr string) *peerConn {
	p.mu.Lock()
	list := p.idle[addr]
	n := len(list)
	if n == 0 {
		p.mu.Unlock()
		return nil
	}
	if top := list[n-1]; time.Since(top.idleSince) < p.window {
		list[n-1] = nil
		p.idle[addr] = list[:n-1]
		p.mu.Unlock()
		return top
	}
	// Every conn below the top has idled even longer.
	delete(p.idle, addr)
	p.mu.Unlock()
	closeAll(list)
	return nil
}

// put returns a conn whose exchange ended cleanly to the pool, or closes
// it when the pool is full or closed.
func (p *connPool) put(addr string, pc *peerConn) {
	pc.idleSince = time.Now()
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= maxIdlePerAddr {
		p.mu.Unlock()
		pc.close()
		return
	}
	p.idle[addr] = append(p.idle[addr], pc)
	p.mu.Unlock()
}

// flush closes every idle conn to addr: the peer left the locator set or
// its breaker opened, so its conns are not worth keeping.
func (p *connPool) flush(addr string) {
	p.mu.Lock()
	list := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	closeAll(list)
}

// close closes every idle conn and makes put close conns from now on.
func (p *connPool) close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = make(map[string][]*peerConn)
	p.mu.Unlock()
	for _, list := range idle {
		closeAll(list)
	}
}

func closeAll(list []*peerConn) {
	for _, pc := range list {
		pc.close()
	}
}

// dialConn opens a fresh fetch conn to addr, through the fault injector
// when one is configured.
func (n *Node) dialConn(addr string) (*peerConn, error) {
	var (
		c   net.Conn
		err error
	)
	if n.faults != nil {
		c, err = n.faults.DialTimeout("tcp", addr, n.dialTimeout)
	} else {
		c, err = net.DialTimeout("tcp", addr, n.dialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	n.om.fetchDial()
	return &peerConn{Conn: c, br: getReader(c)}, nil
}

// exchange runs one hproto request/response against addr, on a pooled
// conn when one is idle and on a fresh dial otherwise, all within one
// FetchTimeout of the real clock (Config.Now is only the cache-visible
// clock). The response body is copied into sink (discarded when
// sink is nil); a push request streams its SizeHint body bytes. The conn
// goes back to the pool only when the exchange ended cleanly with
// nothing left buffered; any error closes it.
//
// A pooled conn that fails before the first response byte, other than
// by timing out, was most likely closed by the responder while it idled
// (idle timeout, restart). The exchange is then tried once more on a
// fresh dial, inside the same deadline; the caller sees only the
// outcome, so the redial is never a retry, a peer failure or breaker
// evidence.
func (n *Node) exchange(addr string, req hproto.Request, sink io.Writer) (hproto.Response, error) {
	deadline := time.Now().Add(n.fetchTimeout)
	pc := n.pool.get(addr)
	reused := pc != nil
	if reused {
		if err := n.faults.Reuse(pc.Conn); err != nil {
			pc.close()
			return hproto.Response{}, fmt.Errorf("dial %s: %w", addr, err)
		}
		n.om.fetchReuse()
	} else {
		var err error
		if pc, err = n.dialConn(addr); err != nil {
			return hproto.Response{}, err
		}
	}
	resp, responded, err := pc.roundTrip(addr, req, sink, deadline)
	if err != nil && reused && !responded && !isTimeout(err) {
		pc.close()
		if pc, err = n.dialConn(addr); err != nil {
			return hproto.Response{}, err
		}
		resp, _, err = pc.roundTrip(addr, req, sink, deadline)
	}
	switch {
	case err != nil:
		pc.close()
		return resp, err
	case pc.br.Buffered() > 0:
		// Bytes past the framed response: the conn is out of step.
		pc.close()
	default:
		n.pool.put(addr, pc)
	}
	return resp, nil
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// servedConns tracks a responder's accepted conns, each idle (waiting for
// a request) or busy (serving one), so shutdown can close the idle ones
// at once while busy ones finish their exchange.
type servedConns struct {
	mu     sync.Mutex
	busy   map[net.Conn]bool
	closed bool
}

// setBusy records c's state; it reports false once shutdown has begun,
// and the caller then closes c instead of serving on.
func (s *servedConns) setBusy(c net.Conn, busy bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.busy == nil {
		s.busy = make(map[net.Conn]bool)
	}
	s.busy[c] = busy
	return true
}

func (s *servedConns) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.busy, c)
	s.mu.Unlock()
}

// closeIdle begins shutdown: every idle conn is closed now, and busy ones
// close when their exchange ends.
func (s *servedConns) closeIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c, busy := range s.busy {
		if !busy {
			_ = c.Close()
		}
	}
}

// serve runs the responder loop on conn: wait up to timeout for a
// request, give handle up to timeout to serve it, repeat. handle reads the request
// from br and reports whether the conn is still in step for another. The
// loop ends without a word when the requester closes the conn between
// requests, the idle timeout passes or shutdown begins; none of those is
// an error. With an injector, every exchange after the first draws its
// TCP faults afresh.
func (s *servedConns) serve(conn net.Conn, timeout time.Duration, in *faults.Injector, handle func(*bufio.Reader) bool) {
	br := getReader(conn)
	defer func() {
		s.remove(conn)
		_ = conn.Close()
		putReader(br)
	}()
	for first := true; s.setBusy(conn, false); first = false {
		if !first {
			_ = in.Reuse(conn) // accepted conns never fail as dials
		}
		_ = conn.SetDeadline(time.Now().Add(timeout))
		if _, err := br.Peek(1); err != nil {
			return
		}
		if !s.setBusy(conn, true) {
			return
		}
		_ = conn.SetDeadline(time.Now().Add(timeout))
		if !handle(br) {
			return
		}
	}
}
