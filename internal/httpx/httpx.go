// Package httpx implements a minimal HTTP/1.0 server and client over the
// reproduction's own TCP — the protocol the paper's concluding demo serves
// ("A demonstration of the protocol stack as it services HTTP requests").
// On a SPIN host the server is an in-kernel extension; on a monolithic host
// it is an ordinary user process; the same handler code runs either way.
//
// Both ends parse in place: the server reads a request head straight from
// the received bytes (copying only when a head spans segments), the client
// reads the response from the bytes it accumulated, and neither builds a
// header map — the only header either acts on is the response's
// Content-Length, which the client checks against the body. The server
// formats each response into one per-Server buffer that the single Send
// copies into the connection's send ring.
package httpx

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Request is a parsed HTTP request line.
type Request struct {
	Method string
	Path   string
	Proto  string
}

// Response is what a handler returns.
type Response struct {
	Status int
	Body   []byte
	// ContentType defaults to text/plain.
	ContentType string
}

// HandlerFunc serves one request.
type HandlerFunc func(t *sim.Task, req *Request) Response

// ServerStats counts server activity.
type ServerStats struct {
	Requests    uint64
	BadRequests uint64
}

// Server is an HTTP/1.0 server bound to a port on one host.
type Server struct {
	handler HandlerFunc
	stats   ServerStats
	// out is the scratch buffer each response is formatted into; Send
	// copies it into the send ring before it is reused.
	out []byte
}

// headEnd ends a message head.
var headEnd = []byte("\r\n\r\n")

// statusText covers the statuses the reproduction emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}

// Serve starts an HTTP server on port with the given handler.
func Serve(st *plexus.Stack, port uint16, handler HandlerFunc) (*Server, error) {
	s := &Server{handler: handler}
	recv := s.recv // bound once: each evaluation of a method value allocates
	_, err := st.ListenTCP(port, plexus.TCPAppOptions{}, func(t *sim.Task, conn *plexus.TCPApp) {
		opts := conn.Options()
		opts.OnRecv = recv
		opts.OnPeerFin = func(t2 *sim.Task, c *plexus.TCPApp) { c.Close(t2) }
		conn.SetOptions(opts)
	})
	if err != nil {
		return nil, fmt.Errorf("httpx: %w", err)
	}
	return s, nil
}

// recv is an accepted connection's OnRecv while nothing is buffered: a slice
// that holds a whole head is answered in place; otherwise the connection
// switches to a partial that accumulates the head.
func (s *Server) recv(t *sim.Task, c *plexus.TCPApp, data []byte) {
	if idx := bytes.Index(data, headEnd); idx >= 0 {
		s.respond(t, c, data[:idx])
		return
	}
	p := &partial{s: s, buf: append([]byte(nil), data...)}
	opts := c.Options()
	opts.OnRecv = p.recv
	c.SetOptions(opts)
}

// partial holds the start of a request head that arrived split across
// segments.
type partial struct {
	s   *Server
	buf []byte
}

func (p *partial) recv(t *sim.Task, c *plexus.TCPApp, data []byte) {
	p.buf = append(p.buf, data...)
	if idx := bytes.Index(p.buf, headEnd); idx >= 0 {
		p.s.respond(t, c, p.buf[:idx])
		p.buf = nil
	}
}

// Stats returns a snapshot of counters.
func (s *Server) Stats() ServerStats { return s.stats }

func (s *Server) respond(t *sim.Task, c *plexus.TCPApp, head []byte) {
	req, err := parseRequest(head)
	var resp Response
	if err != nil {
		s.stats.BadRequests++
		resp = Response{Status: 400, Body: []byte(err.Error() + "\n")}
	} else {
		s.stats.Requests++
		resp = s.handler(t, req)
	}
	if resp.ContentType == "" {
		resp.ContentType = "text/plain"
	}
	b := append(s.out[:0], "HTTP/1.0 "...)
	b = strconv.AppendInt(b, int64(resp.Status), 10)
	b = append(b, ' ')
	b = append(b, statusText(resp.Status)...)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, resp.ContentType...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(resp.Body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, resp.Body...)
	s.out = b
	_ = c.Send(t, b)
	c.Close(t) // HTTP/1.0: one request per connection
}

// cutLine splits b at its first CRLF; rest is nil when there is none.
func cutLine(b []byte) (line, rest []byte) {
	if i := bytes.Index(b, headEnd[:2]); i >= 0 {
		return b[:i], b[i+2:]
	}
	return b, nil
}

// parseRequest reads a request head (the bytes before CRLFCRLF). The request
// line must hold exactly three fields separated by white space; every other
// non-empty line must be a header with a colon. Only the request line is
// copied, into the one string Method, Path and Proto share.
func parseRequest(head []byte) (*Request, error) {
	line, rest := cutLine(head)
	f, ok := fields3(string(line))
	if !ok {
		return nil, fmt.Errorf("httpx: malformed request line %q", line)
	}
	for rest != nil {
		var l []byte
		l, rest = cutLine(rest)
		if len(l) > 0 && bytes.IndexByte(l, ':') < 0 {
			return nil, fmt.Errorf("httpx: malformed header %q", l)
		}
	}
	return &Request{Method: f[0], Path: f[1], Proto: f[2]}, nil
}

// fields3 splits s around runs of white space (unicode.IsSpace, as
// strings.Fields does) and reports whether there are exactly three fields.
func fields3(s string) (f [3]string, ok bool) {
	n, start := 0, -1
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n == len(f) {
				return f, false
			}
			f[n], n, start = s[start:i], n+1, -1
		}
		i += w
	}
	if start >= 0 {
		if n == len(f) {
			return f, false
		}
		f[n], n = s[start:], n+1
	}
	return f, n == len(f)
}

// Result is a fetched response.
type Result struct {
	Status int
	// Body aliases the client's receive buffer, which is recycled for the
	// next GET once done returns: it is valid only during done, as OnRecv
	// data is only during OnRecv. Copy it to keep it.
	Body []byte
	// Latency is request-sent to response-complete.
	Latency sim.Time
}

// get is one GET in flight.
type get struct {
	// raw accumulates the response; it comes from rawBufs and goes back
	// when the GET finishes.
	raw      *[]byte
	started  sim.Time
	finished bool
}

// rawBufs recycles response buffers from one GET to the next.
var rawBufs = sync.Pool{New: func() any { return new([]byte) }}

// release returns the response buffer to rawBufs.
func (g *get) release() {
	*g.raw = (*g.raw)[:0]
	rawBufs.Put(g.raw)
	g.raw = nil
}

// Get issues an HTTP/1.0 GET from the client host and delivers the parsed
// result to done when the server closes the connection. done is called
// exactly once: with the parsed response after the server's FIN, or with the
// close error when the connection ends without one (reset, or no answer to
// the SYN).
func Get(t *sim.Task, client *plexus.Stack, server view.IP4, port uint16, path string, done func(t *sim.Task, r Result, err error)) error {
	g := &get{raw: rawBufs.Get().(*[]byte)}
	_, err := client.ConnectTCP(t, server, port, plexus.TCPAppOptions{
		OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
			g.started = t2.Now()
			var line [128]byte
			req := append(line[:0], "GET "...)
			req = append(req, path...)
			req = append(req, " HTTP/1.0\r\nHost: "...)
			req = server.AppendTo(req)
			req = append(req, "\r\n\r\n"...)
			_ = conn.Send(t2, req)
		},
		OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
			// A monolithic host's woken process can deliver data after a
			// reset already ended the GET; nothing reads it then.
			if !g.finished {
				*g.raw = append(*g.raw, data...)
			}
		},
		OnPeerFin: func(t2 *sim.Task, conn *plexus.TCPApp) {
			if g.finished {
				return
			}
			g.finished = true
			conn.Close(t2)
			r, perr := parseResponse(*g.raw)
			r.Latency = t2.Now() - g.started
			done(t2, r, perr)
			g.release()
		},
		OnClose: func(conn *plexus.TCPApp, err error) {
			if g.finished {
				return
			}
			// The connection died before the server's FIN. The close
			// arrives outside any task, so done runs in one of its own.
			g.finished = true
			g.release()
			client.Spawn("http-get-fail", func(t2 *sim.Task) { done(t2, Result{}, err) })
		},
	})
	return err
}

// parseResponse reads a whole response: a status line "HTTP/... <code> ...",
// headers, CRLFCRLF and the body, which must match the last Content-Length
// header when that header holds a number.
func parseResponse(raw []byte) (Result, error) {
	idx := bytes.Index(raw, headEnd)
	if idx < 0 {
		return Result{}, fmt.Errorf("httpx: truncated response")
	}
	head, body := raw[:idx], raw[idx+4:]
	line, rest := cutLine(head)
	proto, after, ok := bytes.Cut(line, []byte(" "))
	if !ok || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return Result{}, fmt.Errorf("httpx: malformed status line %q", line)
	}
	code, _, _ := bytes.Cut(after, []byte(" "))
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return Result{}, fmt.Errorf("httpx: bad status %q", code)
	}
	r := Result{Status: status, Body: body}
	var length []byte // the last Content-Length value
	for rest != nil {
		var l []byte
		l, rest = cutLine(rest)
		// Simple case folding matches what lower-casing did: no letter of
		// the name has a non-ASCII case variant.
		if k, v, ok := bytes.Cut(l, []byte(":")); ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("content-length")) {
			length = bytes.TrimSpace(v)
		}
	}
	if want, err := strconv.Atoi(string(length)); err == nil && want != len(body) {
		return r, fmt.Errorf("httpx: body length %d != Content-Length %d", len(body), want)
	}
	return r, nil
}
