// Package client is a small HTTP client for the iglrd data plane that
// understands its load-shedding protocol: 429 and 503 responses carry a
// Retry-After header and a structured JSON body ({error, code,
// retry_after_ms}), and the client retries them with jittered exponential
// backoff, honoring the server's hint as the floor for each wait.
//
// Retry safety is decided by the shed code, not the status: admission-gate
// sheds (queue_full, inflight_cap, memory_pressure, quota, shutdown,
// deadline, stalled) mean the daemon acted on nothing, so they are retried
// for every method. The one exception is "parse_pending" — the edit batch
// was accepted and is durable, only its reparse failed — which is never
// auto-retried for a mutating request (re-sending would apply it twice);
// likewise sheds without a code, and transport-level errors, where the
// server may have acted without answering, are retried only for
// idempotent methods.
//
// The chaos/overload harness and iglrbench's daemon_mix workload drive the
// daemon through this package, so its backoff behavior is itself under
// test.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// StatusError is a non-2xx response: the status, the decoded error body
// when the server sent one, and the shed metadata when it was a shed.
type StatusError struct {
	Status int
	// Msg is the server's error message (the body's "error" field, or the
	// raw body when it was not the structured form).
	Msg string
	// Code is the shed code ("queue_full", "memory_pressure", ...) for
	// 429/503 shed responses, "" otherwise.
	Code string
	// RetryAfter is the server's retry hint (0 when none was sent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("daemon/client: HTTP %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("daemon/client: HTTP %d: %s", e.Status, e.Msg)
}

// Shed reports whether the response was a load-shedding one — worth
// retrying after its hint.
func (e *StatusError) Shed() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// retrySafe reports whether replaying the request cannot double-apply it:
// the shed carries a code, and that code is not "parse_pending" (whose
// edit batch is already durable server-side).
func (e *StatusError) retrySafe() bool {
	return e.Code != "" && e.Code != "parse_pending"
}

// Options tunes a Client. The zero value gets sensible defaults.
type Options struct {
	// Timeout bounds each individual HTTP attempt (default 30s).
	Timeout time.Duration
	// MaxRetries is how many times a shed or retriable-transport attempt
	// is retried (default 4; 0 relies on the default — use NoRetry to
	// disable retries).
	MaxRetries int
	// NoRetry disables retries entirely: every shed surfaces to the
	// caller. Benchmarks measuring shed rate use this.
	NoRetry bool
	// BaseBackoff is the first retry's backoff before jitter (default
	// 100ms); each further retry doubles it, capped at MaxBackoff
	// (default 5s). A server Retry-After above the computed backoff
	// replaces it.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HTTPClient overrides the underlying client (shared transports in
	// tests). Its own Timeout is left untouched; per-attempt timeouts come
	// from Options.Timeout via context.
	HTTPClient *http.Client
}

// Client talks to one iglrd data plane.
type Client struct {
	base string
	opt  Options
	hc   *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New creates a client for the daemon's data plane at base
// (e.g. "http://127.0.0.1:8520").
func New(base string, opt Options) *Client {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.MaxRetries <= 0 {
		opt.MaxRetries = 4
	}
	if opt.BaseBackoff <= 0 {
		opt.BaseBackoff = 100 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 5 * time.Second
	}
	hc := opt.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		base: base,
		opt:  opt,
		hc:   hc,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Session is a server-side editing session handle.
type Session struct {
	ID       string  `json:"id"`
	Language string  `json:"language"`
	Tenant   string  `json:"tenant,omitempty"`
	Tolerant bool    `json:"tolerant,omitempty"`
	Outcome  Outcome `json:"outcome"`
}

// Outcome mirrors the daemon's parse-outcome wire form.
type Outcome struct {
	Clean        bool   `json:"clean"`
	Isolated     bool   `json:"isolated,omitempty"`
	ErrorRegions int    `json:"error_regions,omitempty"`
	Degraded     bool   `json:"degraded,omitempty"`
	BudgetTrip   bool   `json:"budget_trip,omitempty"`
	Error        string `json:"error,omitempty"`
	ParseMicros  int64  `json:"parse_micros"`
	TextLen      int    `json:"text_len"`
}

// Edit is one text edit in an edit batch.
type Edit struct {
	Offset int    `json:"offset"`
	Remove int    `json:"remove"`
	Insert string `json:"insert"`
}

// CreateSession opens a session and runs its first parse.
func (c *Client) CreateSession(ctx context.Context, language, text, tenant string, tolerant bool) (*Session, error) {
	var s Session
	err := c.do(ctx, http.MethodPost, "/sessions", map[string]any{
		"language": language, "text": text, "tenant": tenant, "tolerant": tolerant,
	}, &s)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// Edits applies an edit batch to a session and reparses.
func (c *Client) Edits(ctx context.Context, id string, edits []Edit) (*Outcome, error) {
	var o Outcome
	err := c.do(ctx, http.MethodPost, "/sessions/"+id+"/edits", map[string]any{"edits": edits}, &o)
	if err != nil {
		return nil, err
	}
	return &o, nil
}

// Subtree fetches the committed subtree covering [offset, offset+length).
func (c *Client) Subtree(ctx context.Context, id string, offset, length int) (map[string]any, error) {
	var out map[string]any
	q := fmt.Sprintf("/sessions/%s/subtree?offset=%d&length=%d", id, offset, length)
	if err := c.do(ctx, http.MethodGet, q, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Diagnostics fetches a session's current diagnostics.
func (c *Client) Diagnostics(ctx context.Context, id string) (map[string]any, error) {
	var out map[string]any
	if err := c.do(ctx, http.MethodGet, "/sessions/"+id+"/diagnostics", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close deletes a session.
func (c *Client) Close(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/sessions/"+id, nil, nil)
}

// do runs one request with retry. Coded shed responses other than
// parse_pending (the daemon guarantees it acted on nothing) retry for
// every method; uncoded sheds and transport errors retry only for
// idempotent methods, since the server may have acted.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	idempotent := method == http.MethodGet || method == http.MethodDelete || method == http.MethodHead
	var lastErr error
	retries := c.opt.MaxRetries
	if c.opt.NoRetry {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= retries {
			return lastErr
		}
		var se *StatusError
		retriable := false
		wait := time.Duration(0)
		if ok := asStatusError(err, &se); ok {
			if !se.Shed() {
				return lastErr // a real 4xx/5xx answer, not backpressure
			}
			if !se.retrySafe() && !idempotent {
				return lastErr // the server may already hold this mutation
			}
			retriable = true
			wait = se.RetryAfter
		} else if idempotent && ctx.Err() == nil {
			retriable = true // transport error; safe to replay a GET/DELETE
		}
		if !retriable {
			return lastErr
		}
		if b := c.backoff(attempt); b > wait {
			wait = b
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

func asStatusError(err error, out **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*out = se
	}
	return ok
}

// backoff computes the attempt'th jittered exponential backoff: the base
// doubles each attempt (capped), then full jitter in [base/2, base).
func (c *Client) backoff(attempt int) time.Duration {
	b := c.opt.BaseBackoff << uint(attempt)
	if b > c.opt.MaxBackoff || b <= 0 {
		b = c.opt.MaxBackoff
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(b)/2 + 1))
	c.mu.Unlock()
	return b/2 + j
}

func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.opt.Timeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil || len(raw) == 0 {
			return nil
		}
		return json.Unmarshal(raw, out)
	}
	se := &StatusError{Status: resp.StatusCode, Msg: string(raw)}
	var body struct {
		Error        string `json:"error"`
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		se.Msg, se.Code = body.Error, body.Code
		se.RetryAfter = time.Duration(body.RetryAfterMS) * time.Millisecond
	}
	if se.RetryAfter == 0 {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			se.RetryAfter = time.Duration(s) * time.Second
		}
	}
	return se
}
