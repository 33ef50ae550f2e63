package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"ctcomm/internal/router"
	"ctcomm/internal/serve"
)

// stack is the system under test, in-process: one ctserved-equivalent
// server, or a ctrouter-equivalent router in front of two of them, each
// on its own loopback listener.
type stack struct {
	base     string // URL the load is sent to
	servers  []*serve.Server
	replicas []string // replica base URLs
	router   *router.Router
	https    []*http.Server
	done     []chan error
}

// newServer opens a server with ctserved's default flags.
func newServer() (*serve.Server, error) {
	return serve.Open(serve.Config{
		QueueDepth:     64,
		CacheEntries:   4096,
		CacheBytes:     64 << 20,
		RequestTimeout: 30 * time.Second,
	})
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.https = append(s.https, srv)
	s.done = append(s.done, done)
	return "http://" + ln.Addr().String(), nil
}

// startStack starts the servers (two behind a router when routed).
// wrap, when set, wraps each server's handler; the traced run uses it
// to time the in-process part of each request.
func startStack(routed bool, wrap func(http.Handler) http.Handler) (*stack, error) {
	s := &stack{}
	n := 1
	if routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		srv, err := newServer()
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		url, err := s.listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, url)
	}
	s.base = s.replicas[0]
	if routed {
		// ctrouter's default flags.
		rt, err := router.New(router.Config{
			Replicas:       []string{"replica-0=" + s.replicas[0], "replica-1=" + s.replicas[1]},
			VNodes:         64,
			ProbeInterval:  2 * time.Second,
			EjectAfter:     2,
			RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = rt
		if s.base, err = s.listen(rt.Handler()); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close shuts the listeners (router first), then the servers' worker
// pools, and waits for every serving goroutine to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(s.https) - 1; i >= 0; i-- {
		_ = s.https[i].Shutdown(ctx) // a timed-out drain still ends below
		_ = s.https[i].Close()
		<-s.done[i]
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// newClient returns a keep-alive HTTP client for conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// waitReady polls /healthz until the stack answers.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stack at %s not ready: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// outcome is one answered request as the client saw it.
type outcome struct {
	total, first time.Duration
	answers      int    // points answered or sweep rows streamed
	body         []byte // the whole body, kept only when asked for
	err          error
}

// sweepSummary is the terminal line of a /v1/sweep stream.
type sweepSummary struct {
	Done   bool   `json:"done"`
	Cells  int    `json:"cells"`
	Failed int    `json:"failed"`
	Error  string `json:"error"`
}

// send posts one request and reads the whole answer, checking its
// status and, for a sweep, its row count and summary line.
func send(c *http.Client, base string, r *Req, keep bool) outcome {
	start := time.Now()
	resp, err := c.Post(base+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return outcome{err: fmt.Errorf("%s: HTTP %d: %s", r.Path, resp.StatusCode, bytes.TrimSpace(msg))}
	}
	if r.Cells == 0 {
		body, err := io.ReadAll(resp.Body)
		o := outcome{total: time.Since(start), answers: 1, err: err}
		o.first = o.total
		if keep {
			o.body = body
		}
		return o
	}
	var o outcome
	var all bytes.Buffer
	var last []byte
	buf := make([]byte, 32<<10)
	lines := 0
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			nl := bytes.Count(chunk, []byte{'\n'})
			if nl > 0 && lines == 0 {
				o.first = time.Since(start)
			}
			lines += nl
			if keep {
				all.Write(chunk)
			}
			// Keep the tail: the summary is the last line.
			last = append(last, chunk...)
			if len(last) > 4096 {
				last = append(last[:0], last[len(last)-4096:]...)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return outcome{err: fmt.Errorf("reading sweep stream: %w", err)}
		}
	}
	o.total = time.Since(start)
	o.answers = lines - 1
	if keep {
		o.body = all.Bytes()
	}
	sum, err := summaryOf(last)
	switch {
	case err != nil:
		o.err = err
	case !sum.Done || sum.Error != "":
		o.err = fmt.Errorf("sweep not done: %+v", sum)
	case sum.Failed != 0:
		o.err = fmt.Errorf("sweep has %d failed cells", sum.Failed)
	case sum.Cells != r.Cells || o.answers != r.Cells:
		o.err = fmt.Errorf("sweep streamed %d rows, summary %d, want %d", o.answers, sum.Cells, r.Cells)
	}
	return o
}
