// Package hproto implements the inter-proxy document transfer protocol of
// the paper: an HTTP-style request/response exchange in which each side
// piggybacks its cache expiration age on the message it was already sending
// ("the only extra information that is communicated among proxies is the
// Cache Expiration Age ... piggybacked on either a HTTP request message or
// a HTTP response message", §3.4). No extra connections and no extra round
// trips are introduced — exactly the paper's zero-overhead claim.
//
// Connections are persistent: a requester sends one request, reads the
// whole response, and may then send the next request on the same
// connection, like HTTP/1.1 keep-alive without pipelining. Either side
// may close a connection between exchanges; a requester must be ready to
// find a kept connection closed and redial. Every message is framed, so
// the end of each exchange is known without closing the connection:
//
//   - a head ends at its blank line;
//   - a response body is exactly Content-Length bytes (0 when absent);
//   - a push (PUT) request body is exactly X-Size-Hint bytes, and GET
//     requests carry no body.
//
// A reader that stops short of a message's framed end — a truncated body,
// a parse error — must close the connection, since its position in the
// stream is lost. ReadRequest and ReadResponse read only the head; the
// caller reads the body.
//
// Wire format (CRLF line endings, ASCII):
//
//	GET <url> EAC/1.0
//	X-Cache-Expiration-Age: <milliseconds|inf>
//	X-Size-Hint: <bytes>
//
//	EAC/1.0 <200 OK|404 Not-Found>
//	X-Cache-Expiration-Age: <milliseconds|inf>
//	Content-Length: <bytes>
//
//	<body>
//
// A PUT request line marks a migration handoff (Request.Push): the sender
// offers the document, X-Size-Hint is the exact body length that follows,
// and the response's status says whether the receiver kept the copy.
package hproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"eacache/internal/cache"
)

// Protocol constants.
const (
	ProtoVersion = "EAC/1.0"
	// AgeHeader carries the sender's cache expiration age.
	AgeHeader = "X-Cache-Expiration-Age"
	// SizeHintHeader lets a requester tell an origin simulator how large
	// the document should be (trace-driven runs know sizes up front).
	SizeHintHeader = "X-Size-Hint"
	// ResolveHeader marks a hierarchical miss-resolution request: the
	// receiving parent must fetch the document from upstream when it is
	// not cached, instead of answering 404 (paper §3.3).
	ResolveHeader = "X-Resolve"
	// SourceHeader tells the requester whether the body came from the
	// responder's cache or was resolved from the origin, so a child can
	// classify the outcome (remote hit vs miss) like the paper does.
	SourceHeader = "X-Source"

	// TraceHeader carries the compact distributed-tracing context
	// (obs.TraceContext wire form: trace ID, parent span ID, hop count,
	// sampled bit) piggybacked the same way the expiration age is: on
	// messages already being sent, costing no extra round trip. hproto
	// treats the value as opaque — the obs layer owns the format — and a
	// receiver that cannot parse it must drop it, never fail the exchange.
	TraceHeader = "X-Trace-Context"

	// RingHeader carries the requester's topology fingerprint (hex) on a
	// hash-routed resolve request, so the responder can tell "every owner
	// before me is down" (views agree: act as home, keep the copy) from
	// "the requester has not heard about the real owner yet" (views
	// differ: relay without keeping, or a second copy would be minted).
	RingHeader = "X-Ring"

	// SourceCache and SourceOrigin are the SourceHeader values.
	SourceCache  = "cache"
	SourceOrigin = "origin"

	maxURLLen    = 8 * 1024
	maxHeaderLen = 1 * 1024
	// maxTraceLen bounds the opaque trace-context value we are willing to
	// carry; anything longer is dropped on read and rejected on write.
	maxTraceLen = 256
)

// Status codes.
const (
	StatusOK       = 200
	StatusNotFound = 404
)

// Errors.
var (
	ErrMalformed = errors.New("hproto: malformed message")
	ErrTooLong   = errors.New("hproto: line too long")
	// ErrTruncatedBody reports a body that ended before the advertised
	// Content-Length — the signature of a responder that died (or was
	// reset) mid-transfer. Callers match it to decide whether a retry
	// against another copy holder is worthwhile.
	ErrTruncatedBody = errors.New("hproto: truncated body")
)

// Request is an inter-proxy document request.
type Request struct {
	// URL of the wanted document.
	URL string
	// RequesterAge is the requester's cache expiration age.
	RequesterAge time.Duration
	// SizeHint is the expected document size, or 0 if unknown.
	SizeHint int64
	// Resolve asks a hierarchical parent to fetch the document from
	// upstream on a miss instead of answering 404.
	Resolve bool
	// Push marks a migration handoff: the sender offers the document to
	// the receiver instead of asking for it. The request line uses the
	// PUT method, SizeHint is the exact body length that follows the
	// blank line, and the receiver answers StatusOK when it stored the
	// copy or StatusNotFound when it refused (not the owner, draining,
	// or out of space) — either way piggybacking its own expiration age,
	// which the sender uses to EA-gate later transfers. Push and Resolve
	// are mutually exclusive.
	Push bool
	// RingFP is the requester's topology fingerprint
	// (chash.Ring.Fingerprint) on a hash-routed resolve request; zero
	// means absent (non-hash requesters never send it).
	RingFP uint64
	// AgeClamped reports that the wire carried a negative or overflowing
	// expiration age and RequesterAge is the clamped substitute — a
	// misbehaving peer, worth counting (Node.Robustness) but not worth
	// failing the exchange over.
	AgeClamped bool
	// Trace is the opaque distributed-tracing context (TraceHeader), empty
	// when the request is untraced. hproto does not interpret it; an
	// oversized value is dropped on read, not fatal.
	Trace string
}

// Response is the reply carrying the document and the responder's age.
type Response struct {
	// Status is StatusOK or StatusNotFound.
	Status int
	// ResponderAge is the responder's cache expiration age.
	ResponderAge time.Duration
	// ContentLength is the body size that follows.
	ContentLength int64
	// Source reports where the body came from: SourceCache (the
	// responder held it) or SourceOrigin (it was resolved upstream).
	// Empty is treated as SourceCache for compatibility.
	Source string
	// AgeClamped reports that the wire carried a negative or overflowing
	// expiration age and ResponderAge is the clamped substitute.
	AgeClamped bool
	// Trace echoes the tracing context back to the requester (with the
	// responder's own span record as the parent ID), so the requester can
	// link the remote leg into its trace. Opaque to hproto.
	Trace string
}

// FormatAge renders an expiration age for the wire: integer milliseconds,
// or "inf" for cache.NoContention (a cache that has evicted nothing).
func FormatAge(age time.Duration) string {
	if age >= cache.NoContention {
		return "inf"
	}
	if age < 0 {
		age = 0
	}
	return strconv.FormatInt(age.Milliseconds(), 10)
}

// ParseAge parses a wire-format expiration age strictly: negative and
// non-numeric values are errors. The message readers use ParseAgeClamped
// instead, so a misbehaving peer cannot fail an exchange with a hostile
// age value.
func ParseAge(s string) (time.Duration, error) {
	age, clamped, err := ParseAgeClamped(s)
	if err != nil {
		return 0, err
	}
	if clamped {
		return 0, fmt.Errorf("%w: bad age %q", ErrMalformed, s)
	}
	return age, nil
}

// maxAgeMillis is the largest millisecond count representable as a
// time.Duration; anything above it would overflow the multiplication.
const maxAgeMillis = math.MaxInt64 / int64(time.Millisecond)

// ParseAgeClamped parses a wire-format expiration age without trusting
// the peer: a negative value clamps to zero (maximum contention claims
// nothing it could not claim with "0") and a value too large for a
// time.Duration clamps to NoContention (it was asserting effectively
// infinite headroom anyway). clamped reports that such a substitution
// happened so the caller can count the misbehaving peer. Only a
// non-numeric value — line noise, not a number at all — is an error.
func ParseAgeClamped(s string) (age time.Duration, clamped bool, err error) {
	if s == "inf" {
		return cache.NoContention, false, nil
	}
	ms, perr := strconv.ParseInt(s, 10, 64)
	if perr != nil {
		if !errors.Is(perr, strconv.ErrRange) {
			return 0, false, fmt.Errorf("%w: bad age %q", ErrMalformed, s)
		}
		// Out of int64 range entirely: clamp by sign.
		if strings.HasPrefix(strings.TrimSpace(s), "-") {
			return 0, true, nil
		}
		return cache.NoContention, true, nil
	}
	switch {
	case ms < 0:
		return 0, true, nil
	case ms > maxAgeMillis:
		return cache.NoContention, true, nil
	}
	return time.Duration(ms) * time.Millisecond, false, nil
}

// WriteRequest serialises req. For a Push request the caller must write
// exactly req.SizeHint body bytes immediately after.
func WriteRequest(w io.Writer, req Request) error {
	if strings.ContainsAny(req.URL, " \r\n") || req.URL == "" {
		return fmt.Errorf("%w: bad URL %q", ErrMalformed, req.URL)
	}
	if len(req.URL) > maxURLLen {
		return ErrTooLong
	}
	if req.Push && req.Resolve {
		return fmt.Errorf("%w: push request cannot resolve", ErrMalformed)
	}
	method := "GET"
	if req.Push {
		if req.SizeHint < 0 {
			return fmt.Errorf("%w: negative push size %d", ErrMalformed, req.SizeHint)
		}
		method = "PUT"
	}
	resolve := ""
	if req.Resolve {
		resolve = ResolveHeader + ": 1\r\n"
	}
	ring := ""
	if req.RingFP != 0 {
		ring = RingHeader + ": " + strconv.FormatUint(req.RingFP, 16) + "\r\n"
	}
	trace, err := traceHeaderLine(req.Trace)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s %s %s\r\n%s: %s\r\n%s: %d\r\n%s%s%s\r\n",
		method, req.URL, ProtoVersion,
		AgeHeader, FormatAge(req.RequesterAge),
		SizeHintHeader, req.SizeHint,
		resolve, ring, trace)
	if err != nil {
		return fmt.Errorf("hproto: write request: %w", err)
	}
	return nil
}

// traceHeaderLine renders the optional trace-context header. The value is
// opaque but must still be a legal single header value: writing is the one
// place strictness is cheap and correct (we own the value), reading stays
// tolerant (the peer's value is dropped when oversized, never fatal).
func traceHeaderLine(v string) (string, error) {
	if v == "" {
		return "", nil
	}
	if len(v) > maxTraceLen {
		return "", fmt.Errorf("%w: trace context", ErrTooLong)
	}
	if strings.ContainsAny(v, " \r\n") {
		return "", fmt.Errorf("%w: bad trace context %q", ErrMalformed, v)
	}
	return TraceHeader + ": " + v + "\r\n", nil
}

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (Request, error) {
	line, err := readLine(r)
	if err != nil {
		return Request{}, err
	}
	parts := strings.Split(line, " ")
	if len(parts) != 3 || (parts[0] != "GET" && parts[0] != "PUT") || parts[2] != ProtoVersion {
		return Request{}, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := Request{URL: parts[1], Push: parts[0] == "PUT"}
	headers, err := readHeaders(r)
	if err != nil {
		return Request{}, err
	}
	if v, ok := headers[AgeHeader]; ok {
		if req.RequesterAge, req.AgeClamped, err = ParseAgeClamped(v); err != nil {
			return Request{}, err
		}
	}
	if v, ok := headers[SizeHintHeader]; ok {
		req.SizeHint, err = strconv.ParseInt(v, 10, 64)
		if err != nil || req.SizeHint < 0 {
			return Request{}, fmt.Errorf("%w: bad size hint %q", ErrMalformed, v)
		}
	}
	if v, ok := headers[ResolveHeader]; ok {
		if v != "1" {
			return Request{}, fmt.Errorf("%w: bad resolve flag %q", ErrMalformed, v)
		}
		req.Resolve = true
	}
	if v, ok := headers[RingHeader]; ok {
		req.RingFP, err = strconv.ParseUint(v, 16, 64)
		if err != nil {
			return Request{}, fmt.Errorf("%w: bad ring fingerprint %q", ErrMalformed, v)
		}
	}
	if v, ok := headers[TraceHeader]; ok && len(v) <= maxTraceLen {
		req.Trace = v
	}
	if req.Push && req.Resolve {
		return Request{}, fmt.Errorf("%w: push request cannot resolve", ErrMalformed)
	}
	return req, nil
}

// WriteResponse serialises resp followed by exactly ContentLength bytes
// copied from body (body may be nil when ContentLength is 0).
func WriteResponse(w io.Writer, resp Response, body io.Reader) error {
	reason := "OK"
	if resp.Status == StatusNotFound {
		reason = "Not-Found"
	}
	source := ""
	if resp.Source != "" {
		if resp.Source != SourceCache && resp.Source != SourceOrigin {
			return fmt.Errorf("%w: bad source %q", ErrMalformed, resp.Source)
		}
		source = SourceHeader + ": " + resp.Source + "\r\n"
	}
	trace, err := traceHeaderLine(resp.Trace)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s %d %s\r\n%s: %s\r\nContent-Length: %d\r\n%s%s\r\n",
		ProtoVersion, resp.Status, reason,
		AgeHeader, FormatAge(resp.ResponderAge),
		resp.ContentLength,
		source, trace)
	if err != nil {
		return fmt.Errorf("hproto: write response: %w", err)
	}
	if resp.ContentLength > 0 {
		if body == nil {
			return fmt.Errorf("%w: missing body", ErrMalformed)
		}
		// A body that can write itself (io.WriterTo) skips io.CopyN's
		// per-call copy buffer — the serve path hands in pooled-buffer
		// bodies, so a cache hit allocates nothing here.
		if wt, ok := body.(io.WriterTo); ok {
			n, werr := wt.WriteTo(w)
			if werr != nil {
				return fmt.Errorf("hproto: write body: %w", werr)
			}
			if n != resp.ContentLength {
				return fmt.Errorf("hproto: write body: wrote %d of %d bytes", n, resp.ContentLength)
			}
			return nil
		}
		if _, err := io.CopyN(w, body, resp.ContentLength); err != nil {
			return fmt.Errorf("hproto: write body: %w", err)
		}
	}
	return nil
}

// ReadResponse parses the response head; the caller then reads exactly
// ContentLength body bytes from r.
func ReadResponse(r *bufio.Reader) (Response, error) {
	line, err := readLine(r)
	if err != nil {
		return Response{}, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || parts[0] != ProtoVersion {
		return Response{}, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil || (status != StatusOK && status != StatusNotFound) {
		return Response{}, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	resp := Response{Status: status}
	headers, err := readHeaders(r)
	if err != nil {
		return Response{}, err
	}
	if v, ok := headers[AgeHeader]; ok {
		if resp.ResponderAge, resp.AgeClamped, err = ParseAgeClamped(v); err != nil {
			return Response{}, err
		}
	}
	if v, ok := headers["Content-Length"]; ok {
		resp.ContentLength, err = strconv.ParseInt(v, 10, 64)
		if err != nil || resp.ContentLength < 0 {
			return Response{}, fmt.Errorf("%w: content length %q", ErrMalformed, v)
		}
	}
	if v, ok := headers[SourceHeader]; ok {
		if v != SourceCache && v != SourceOrigin {
			return Response{}, fmt.Errorf("%w: source %q", ErrMalformed, v)
		}
		resp.Source = v
	}
	if v, ok := headers[TraceHeader]; ok && len(v) <= maxTraceLen {
		resp.Trace = v
	}
	return resp, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("hproto: read: %w", err)
	}
	if len(line) > maxURLLen+64 {
		return "", ErrTooLong
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func readHeaders(r *bufio.Reader) (map[string]string, error) {
	headers := make(map[string]string, 4)
	for lines := 0; ; lines++ {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return headers, nil
		}
		if lines >= 32 || len(line) > maxHeaderLen {
			return nil, ErrTooLong
		}
		name, value, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		headers[strings.TrimSpace(name)] = strings.TrimSpace(value)
	}
}
