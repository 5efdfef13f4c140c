package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Faults is one rule's per-request fault probabilities. Draws happen in
// the order the fields are declared; at most one fault fires per request
// (plus an independent delay), which keeps intensities interpretable.
//
// Drop, HTTP500, Stall and Truncate are all failures the receiver can
// detect — the dispatcher's retry, watchdog and requeue machinery must
// absorb them. There is deliberately no payload bit flip: aimed at an
// NDJSON outcome stream it could forge a *valid* line with a wrong rep or
// class, which no transport-level defense can detect — that Byzantine case
// is Behavior.MismatchDuplicate's job, where the ledger can see it.
type Faults struct {
	// PathPrefix scopes the rule: only requests whose URL path starts
	// with it are perturbed. Empty matches every request.
	PathPrefix string

	// Drop fails the request outright with a synthetic connection error.
	Drop float64
	// HTTP500 answers with a synthetic 503 without reaching the peer.
	HTTP500 float64
	// Stall lets the response through, then blocks the body mid-read
	// without closing it — the failure TCP keepalives never surface and
	// only a progress watchdog catches.
	Stall float64
	// StallFor bounds how long a stalled body blocks before erroring out
	// (so an unwatched harness still terminates). Zero means 30s.
	StallFor time.Duration
	// StallAfter is the byte budget served before the stall (the draw is
	// in [0, StallAfter]); zero stalls immediately after the headers.
	StallAfter int
	// Truncate cuts the body after a random prefix: a clean EOF mid-
	// stream, mid-NDJSON-line more often than not.
	Truncate float64
	// Delay holds the request for a random duration up to MaxDelay
	// before sending it; drawn independently of the faults above.
	Delay    float64
	MaxDelay time.Duration
}

// Transport is a chaos http.RoundTripper: it forwards requests to Inner
// (http.DefaultTransport when nil) and perturbs them according to the
// first matching rule, drawing every decision from R.
type Transport struct {
	Inner http.RoundTripper
	R     *Rand
	Rules []Faults
	// OnFault, when set, observes every injected fault (kind, request
	// path) — the harness's log line. Must be safe for concurrent use.
	OnFault func(kind, path string)
}

func (t *Transport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

func (t *Transport) rule(path string) *Faults {
	for i := range t.Rules {
		if strings.HasPrefix(path, t.Rules[i].PathPrefix) {
			return &t.Rules[i]
		}
	}
	return nil
}

func (t *Transport) note(kind, path string) {
	if t.OnFault != nil {
		t.OnFault(kind, path)
	}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.rule(req.URL.Path)
	if f == nil {
		return t.inner().RoundTrip(req)
	}
	if f.Delay > 0 && t.R.Chance(f.Delay) {
		t.note("delay", req.URL.Path)
		d := time.Duration(t.R.Intn(int(f.MaxDelay) + 1))
		timer := time.NewTimer(d)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if t.R.Chance(f.Drop) {
		t.note("drop", req.URL.Path)
		return nil, fmt.Errorf("chaos: injected connection drop on %s", req.URL.Path)
	}
	if t.R.Chance(f.HTTP500) {
		t.note("http500", req.URL.Path)
		return &http.Response{
			Status:     "503 chaos",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader("chaos: injected 503\n")),
			Request:    req,
		}, nil
	}
	resp, err := t.inner().RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	switch {
	case t.R.Chance(f.Stall):
		t.note("stall", req.URL.Path)
		stallFor := f.StallFor
		if stallFor == 0 {
			stallFor = 30 * time.Second
		}
		after := 0
		if f.StallAfter > 0 {
			after = t.R.Intn(f.StallAfter + 1)
		}
		resp.Body = &stallBody{
			inner:  resp.Body,
			after:  after,
			d:      stallFor,
			ctx:    req.Context(),
			closed: make(chan struct{}),
		}
	case t.R.Chance(f.Truncate):
		t.note("truncate", req.URL.Path)
		resp.Body = &truncateBody{inner: resp.Body, left: t.R.Intn(4096) + 1}
	}
	return resp, nil
}

// stallBody passes through up to `after` bytes, then blocks: the peer is
// gone for all practical purposes, but the connection never closes, so
// nothing short of a progress watchdog notices. It unblocks when the
// reader closes the body (the watchdog's move), the request context
// ends, or the safety bound d elapses.
type stallBody struct {
	inner  io.ReadCloser
	after  int
	served int
	d      time.Duration
	ctx    context.Context
	closed chan struct{}
	once   sync.Once
}

func (b *stallBody) Read(p []byte) (int, error) {
	if b.served < b.after {
		if max := b.after - b.served; len(p) > max {
			p = p[:max]
		}
		n, err := b.inner.Read(p)
		b.served += n
		if n > 0 || err != nil {
			return n, err
		}
	}
	timer := time.NewTimer(b.d)
	defer timer.Stop()
	select {
	case <-b.ctx.Done():
		return 0, b.ctx.Err()
	case <-b.closed:
		return 0, fmt.Errorf("chaos: stalled body closed by reader")
	case <-timer.C:
		return 0, fmt.Errorf("chaos: stall bound elapsed")
	}
}

func (b *stallBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return b.inner.Close()
}

// truncateBody serves a prefix of the stream, then reports a clean EOF:
// the mid-line NDJSON break, indistinguishable at the transport from a
// peer that crashed between flushes.
type truncateBody struct {
	inner io.ReadCloser
	left  int
}

func (b *truncateBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.EOF
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.inner.Read(p)
	b.left -= n
	return n, err
}

func (b *truncateBody) Close() error { return b.inner.Close() }
