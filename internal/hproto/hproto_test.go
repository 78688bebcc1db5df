package hproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"eacache/internal/cache"
)

func TestFormatParseAge(t *testing.T) {
	tests := []struct {
		age  time.Duration
		want string
	}{
		{0, "0"},
		{1500 * time.Millisecond, "1500"},
		{2 * time.Hour, "7200000"},
		{cache.NoContention, "inf"},
		{-time.Second, "0"},
	}
	for _, tt := range tests {
		if got := FormatAge(tt.age); got != tt.want {
			t.Errorf("FormatAge(%v) = %q, want %q", tt.age, got, tt.want)
		}
	}

	for _, tt := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"0", 0, true},
		{"1500", 1500 * time.Millisecond, true},
		{"inf", cache.NoContention, true},
		{"-3", 0, false},
		{"abc", 0, false},
		{"", 0, false},
	} {
		got, err := ParseAge(tt.in)
		if (err == nil) != tt.ok {
			t.Fatalf("ParseAge(%q) err = %v", tt.in, err)
		}
		if tt.ok && got != tt.want {
			t.Fatalf("ParseAge(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{URL: "http://a.example.edu/x.html", RequesterAge: 90 * time.Second, SizeHint: 2048},
		{URL: "http://b/", RequesterAge: cache.NoContention},
		{URL: "http://c/", RequesterAge: 0, SizeHint: 0},
	}
	for _, req := range reqs {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("WriteRequest(%+v): %v", req, err)
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("ReadRequest: %v", err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
	}
}

func TestResponseRoundTripWithBody(t *testing.T) {
	body := strings.Repeat("z", 1000)
	resp := Response{Status: StatusOK, ResponderAge: 7 * time.Second, ContentLength: 1000}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp, strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	got, err := ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if got != resp {
		t.Fatalf("head: got %+v, want %+v", got, resp)
	}
	gotBody := make([]byte, got.ContentLength)
	if _, err := io.ReadFull(br, gotBody); err != nil {
		t.Fatal(err)
	}
	if string(gotBody) != body {
		t.Fatal("body mangled")
	}
}

func TestNotFoundResponse(t *testing.T) {
	resp := Response{Status: StatusNotFound, ResponderAge: cache.NoContention}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != resp {
		t.Fatalf("got %+v, want %+v", got, resp)
	}
}

func TestWriteRequestRejectsBadURLs(t *testing.T) {
	for _, url := range []string{"", "has space", "has\nnewline", "has\rreturn"} {
		if err := WriteRequest(io.Discard, Request{URL: url}); err == nil {
			t.Fatalf("URL %q accepted", url)
		}
	}
	long := Request{URL: "http://x/" + strings.Repeat("a", maxURLLen)}
	if err := WriteRequest(io.Discard, long); !errors.Is(err, ErrTooLong) {
		t.Fatalf("long URL: %v", err)
	}
}

func TestWriteResponseMissingBody(t *testing.T) {
	err := WriteResponse(io.Discard, Response{Status: StatusOK, ContentLength: 10}, nil)
	if err == nil {
		t.Fatal("missing body accepted")
	}
}

func TestReadRequestErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad verb", "POST http://a/ EAC/1.0\r\n\r\n"},
		{"bad version", "GET http://a/ HTTP/1.0\r\n\r\n"},
		{"no headers terminator", "GET http://a/ EAC/1.0\r\n"},
		{"bad header", "GET http://a/ EAC/1.0\r\nnocolon\r\n\r\n"},
		{"bad age", "GET http://a/ EAC/1.0\r\nX-Cache-Expiration-Age: nan\r\n\r\n"},
		{"bad size hint", "GET http://a/ EAC/1.0\r\nX-Size-Hint: -2\r\n\r\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadRequest(bufio.NewReader(strings.NewReader(tt.in))); err == nil {
				t.Fatalf("ReadRequest(%q) succeeded", tt.in)
			}
		})
	}
}

func TestReadResponseErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"wrong proto", "HTTP/1.0 200 OK\r\n\r\n"},
		{"bad status", "EAC/1.0 500 Oops\r\n\r\n"},
		{"negative length", "EAC/1.0 200 OK\r\nContent-Length: -1\r\n\r\n"},
		{"bad age", "EAC/1.0 200 OK\r\nX-Cache-Expiration-Age: zzz\r\n\r\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadResponse(bufio.NewReader(strings.NewReader(tt.in))); err == nil {
				t.Fatalf("ReadResponse(%q) succeeded", tt.in)
			}
		})
	}
}

func TestHeaderLimits(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET http://a/ EAC/1.0\r\n")
	for i := 0; i < 40; i++ {
		b.WriteString("X-Padding-Header: value\r\n")
	}
	b.WriteString("\r\n")
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(b.String()))); !errors.Is(err, ErrTooLong) {
		t.Fatalf("header flood: %v", err)
	}
}

// endlessLine is a peer that streams 'a' forever and never sends a
// newline; n counts the bytes taken from it.
type endlessLine struct{ n int }

func (e *endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.n += len(p)
	return len(p), nil
}

func TestReadLineStopsAtLimitWithoutNewline(t *testing.T) {
	for name, read := range map[string]func(*bufio.Reader) error{
		"request":  func(r *bufio.Reader) error { _, err := ReadRequest(r); return err },
		"response": func(r *bufio.Reader) error { _, err := ReadResponse(r); return err },
	} {
		src := &endlessLine{}
		br := bufio.NewReader(src)
		if err := read(br); !errors.Is(err, ErrTooLong) {
			t.Fatalf("%s: endless line: err = %v, want ErrTooLong", name, err)
		}
		if limit := maxLineLen + br.Size(); src.n > limit {
			t.Fatalf("%s: consumed %d bytes of an endless line, want <= %d", name, src.n, limit)
		}
	}
}

// TestReadLineLimit checks the limit's edge: a line of exactly
// maxLineLen bytes, spanning several buffer fills, reads back whole; one
// byte more is ErrTooLong.
func TestReadLineLimit(t *testing.T) {
	body := strings.Repeat("a", maxLineLen-2)
	got, err := readLine(bufio.NewReader(strings.NewReader(body + "\r\n")))
	if err != nil || got != body {
		t.Fatalf("longest line: %d bytes, err %v; want %d bytes", len(got), err, len(body))
	}
	if _, err := readLine(bufio.NewReader(strings.NewReader(body + "a\r\n"))); !errors.Is(err, ErrTooLong) {
		t.Fatalf("line one byte over the limit: err = %v, want ErrTooLong", err)
	}
}

// TestReadRequestRejectsURLsWriteRefuses keeps the reader no looser than
// the writer: a request a node accepts must be one it can relay.
func TestReadRequestRejectsURLsWriteRefuses(t *testing.T) {
	for _, url := range []string{"", "has\rreturn", "http://x/" + strings.Repeat("a", maxURLLen)} {
		in := "GET " + url + " EAC/1.0\r\n\r\n"
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Fatalf("request line with URL %.40q accepted", url)
		}
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(ageMillis uint32, sizeHint uint32, pathSeed uint16) bool {
		req := Request{
			URL:          "http://host.example.edu/doc" + strings.Repeat("x", int(pathSeed%64)),
			RequesterAge: time.Duration(ageMillis) * time.Millisecond,
			SizeHint:     int64(sizeHint),
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		return err == nil && got == req
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAgeRoundTrip(t *testing.T) {
	f := func(ms uint32) bool {
		age := time.Duration(ms) * time.Millisecond
		got, err := ParseAge(FormatAge(age))
		return err == nil && got == age
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// NoContention survives the trip exactly.
	got, err := ParseAge(FormatAge(cache.NoContention))
	if err != nil || got != cache.NoContention {
		t.Fatalf("NoContention round trip: %v, %v", got, err)
	}
}

func TestPushRequestRoundTrip(t *testing.T) {
	req := Request{
		URL:          "http://a.example.edu/x.html",
		RequesterAge: 45 * time.Second,
		SizeHint:     4096,
		Push:         true,
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if !strings.HasPrefix(wire, "PUT ") {
		t.Fatalf("push request line %q, want PUT method", wire[:20])
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip: got %+v, want %+v", got, req)
	}
}

func TestRingFingerprintRoundTrip(t *testing.T) {
	for _, fp := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		req := Request{URL: "http://a/", RingFP: fp, Resolve: true}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
	}
	// Zero means absent: the header must not appear on the wire.
	var buf bytes.Buffer
	if err := WriteRequest(&buf, Request{URL: "http://a/"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), RingHeader) {
		t.Fatalf("zero fingerprint emitted a %s header: %q", RingHeader, buf.String())
	}
}

func TestPushRequestRejections(t *testing.T) {
	if err := WriteRequest(io.Discard, Request{URL: "http://a/", Push: true, Resolve: true}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("push+resolve write: %v", err)
	}
	if err := WriteRequest(io.Discard, Request{URL: "http://a/", Push: true, SizeHint: -1}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("negative push size: %v", err)
	}
	bad := []string{
		"PUT http://a/ EAC/1.0\r\nX-Resolve: 1\r\n\r\n",
		"GET http://a/ EAC/1.0\r\nX-Ring: nothex\r\n\r\n",
		"GET http://a/ EAC/1.0\r\nX-Ring: -1\r\n\r\n",
	}
	for _, in := range bad {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ReadRequest(%q) = %v, want ErrMalformed", in, err)
		}
	}
}
