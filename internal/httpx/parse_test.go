package httpx

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// refRequest and refResult are what the reference parsers yield.
type refRequest struct {
	Method, Path, Proto string
	Headers             map[string]string
}

type refResult struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// refParseRequest is the strings-based parser parseRequest replaced: split
// the head into lines, the request line into fields, and every header into a
// lower-cased map.
func refParseRequest(head string) (*refRequest, error) {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("httpx: empty request")
	}
	parts := strings.Fields(lines[0])
	if len(parts) != 3 {
		return nil, fmt.Errorf("httpx: malformed request line %q", lines[0])
	}
	req := &refRequest{Method: parts[0], Path: parts[1], Proto: parts[2], Headers: map[string]string{}}
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			return nil, fmt.Errorf("httpx: malformed header %q", l)
		}
		req.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return req, nil
}

// refParseResponse is the strings-based parser parseResponse replaced.
func refParseResponse(raw []byte) (refResult, error) {
	s := string(raw)
	idx := strings.Index(s, "\r\n\r\n")
	if idx < 0 {
		return refResult{}, fmt.Errorf("httpx: truncated response")
	}
	head, body := s[:idx], raw[idx+4:]
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return refResult{}, fmt.Errorf("httpx: malformed status line %q", lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return refResult{}, fmt.Errorf("httpx: bad status %q", parts[1])
	}
	r := refResult{Status: code, Headers: map[string]string{}, Body: body}
	for _, l := range lines[1:] {
		if k, v, ok := strings.Cut(l, ":"); ok {
			r.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	if cl, ok := r.Headers["content-length"]; ok {
		want, err := strconv.Atoi(cl)
		if err == nil && want != len(body) {
			return r, fmt.Errorf("httpx: body length %d != Content-Length %d", len(body), want)
		}
	}
	return r, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkRequest compares parseRequest with the reference on one head: accept
// or reject, the error text (the 400 body carries it) and the three fields.
func checkRequest(t *testing.T, head []byte) {
	t.Helper()
	want, werr := refParseRequest(string(head))
	got, gerr := parseRequest(head)
	if errText(gerr) != errText(werr) {
		t.Fatalf("head %q: error %q, reference %q", head, errText(gerr), errText(werr))
	}
	if werr != nil {
		return
	}
	if got.Method != want.Method || got.Path != want.Path || got.Proto != want.Proto {
		t.Fatalf("head %q: got %q %q %q, reference %q %q %q", head,
			got.Method, got.Path, got.Proto, want.Method, want.Path, want.Proto)
	}
}

// checkResponse compares parseResponse with the reference on one response:
// the error text — which carries the Content-Length verdict, with the value
// of the last such header when it disagrees with the body — status and body.
func checkResponse(t *testing.T, raw []byte) {
	t.Helper()
	want, werr := refParseResponse(raw)
	got, gerr := parseResponse(raw)
	if errText(gerr) != errText(werr) {
		t.Fatalf("response %q: error %q, reference %q", raw, errText(gerr), errText(werr))
	}
	if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("response %q: got %d %q, reference %d %q", raw, got.Status, got.Body, want.Status, want.Body)
	}
}

var requestSeeds = []string{
	"GET / HTTP/1.0",
	"GET /obj/01 HTTP/1.0\r\nHost: 10.0.0.2",
	"GET\t/tab HTTP/1.0",
	"GET  /double  HTTP/1.0 ",
	" GET / HTTP/1.0\r\n\r\nX: y",
	"GET / HTTP/1.0 extra",
	"GET /",
	"",
	"NONSENSE",
	"GET / HTTP/1.0\r\nno colon here",
	"GET / HTTP/1.0\r\nA: 1\r\n\r\nB",
	"GET /nbsp　HTTP/1.0",
	"GET\u0085/nel HTTP/1.0\r\nK:\xff",
	"GET /\xff\xfe HTTP/1.0\r",
	"GET / HTTP/1.0\n\vX\r\nY:",
}

var responseSeeds = []string{
	"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello",
	"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhell",
	"HTTP/1.0 200 OK\r\nContent-Length: 4\r\nCONTENT-LENGTH : 5\r\n\r\nhello",
	"HTTP/1.0 200 OK\r\nContent-Length: 5\r\ncontent-length: x\r\n\r\nhi",
	"HTTP/1.0 200 OK\r\nContent-Length: +2\r\n\r\nhi",
	"HTTP/1.0 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
	"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n",
	"HTTP/1.0 2x0 OK\r\n\r\n",
	"HTTP/1.0  200 OK\r\n\r\n",
	"HTTP/1.0 404\r\n\r\nnot found\n",
	"HTTP/1.0\r\n\r\n",
	"HTP/1.0 200 OK\r\n\r\n",
	"HTTP/1.0 200 OK\r\nno colon\r\n Content-Length\u0085:\t0\r\n\r\n",
	"HTTP/1.0 200 OK\r\nKontent-Length: 3\r\n\r\n",
	"",
}

func TestParsersAgreeWithReference(t *testing.T) {
	for _, s := range requestSeeds {
		checkRequest(t, []byte(s))
	}
	for _, s := range responseSeeds {
		checkResponse(t, []byte(s))
	}
}

func FuzzParseRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequest)
}

func FuzzParseResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkResponse)
}
