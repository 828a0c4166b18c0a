package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
	"unicode/utf8"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/dag"
	"iglr/internal/govern"
)

// ---- wire types ----------------------------------------------------------

type errorJSON struct {
	Error string `json:"error"`
}

type editJSON struct {
	Offset int    `json:"offset"`
	Remove int    `json:"remove"`
	Insert string `json:"insert"`
}

type createSessionJSON struct {
	Language string `json:"language"`
	Text     string `json:"text"`
	Tenant   string `json:"tenant,omitempty"`
	// Tolerant makes every parse of this session run under two-tier error
	// recovery: syntax errors are quarantined as diagnostics instead of
	// failing the parse.
	Tolerant bool `json:"tolerant,omitempty"`
}

type diagnosticJSON struct {
	Offset   int      `json:"offset"`
	Length   int      `json:"length"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Expected []string `json:"expected,omitempty"`
	Region   string   `json:"region,omitempty"`
}

// outcomeJSON is the wire form of one parse outcome. Parse-level failures
// (syntax errors, budget trips) are data, not HTTP errors: the request
// itself succeeded.
type outcomeJSON struct {
	Clean        bool             `json:"clean"`
	Isolated     bool             `json:"isolated,omitempty"`
	ErrorRegions int              `json:"error_regions,omitempty"`
	Degraded     bool             `json:"degraded,omitempty"`
	BudgetTrip   bool             `json:"budget_trip,omitempty"`
	Error        string           `json:"error,omitempty"`
	Diagnostics  []diagnosticJSON `json:"diagnostics,omitempty"`
	ParseMicros  int64            `json:"parse_micros"`
	TextLen      int              `json:"text_len"`
}

type sessionJSON struct {
	ID       string      `json:"id"`
	Language string      `json:"language"`
	Tenant   string      `json:"tenant,omitempty"`
	Tolerant bool        `json:"tolerant,omitempty"`
	Outcome  outcomeJSON `json:"outcome"`
}

type editsRequestJSON struct {
	Edits []editJSON `json:"edits"`
}

type subtreeJSON struct {
	Symbol  string `json:"symbol"`
	Kind    string `json:"kind"`
	Offset  int    `json:"offset"`
	Length  int    `json:"length"`
	Outline string `json:"outline,omitempty"`
}

type batchFileJSON struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type batchRequestJSON struct {
	Language string          `json:"language"`
	Tolerant bool            `json:"tolerant,omitempty"`
	Files    []batchFileJSON `json:"files"`
}

type batchResultJSON struct {
	Name        string           `json:"name"`
	OK          bool             `json:"ok"`
	Error       string           `json:"error,omitempty"`
	Degraded    bool             `json:"degraded,omitempty"`
	BudgetTrips int              `json:"budget_trips,omitempty"`
	Diagnostics []diagnosticJSON `json:"diagnostics,omitempty"`
	Micros      int64            `json:"micros"`
}

type batchResponseJSON struct {
	Files      []batchResultJSON `json:"files"`
	Failed     int               `json:"failed"`
	WallMicros int64             `json:"wall_micros"`
}

// ---- helpers -------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// shedJSON is the structured body of every load-shedding response (429 and
// 503): a machine-readable code and the retry hint the Retry-After header
// carries, in milliseconds so clients can back off finer than a second.
type shedJSON struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// Shed codes, one per admission-control gate.
const (
	shedCodeQueueFull = "queue_full"
	shedCodeInflight  = "inflight_cap"
	shedCodeMemory    = "memory_pressure"
	shedCodeQuota     = "quota"
	shedCodeStalled   = "stalled"
	shedCodeDeadline  = "deadline"
	shedCodeShutdown  = "shutdown"
	// shedCodeParsePending is special: the edit batch WAS accepted —
	// journaled, durable, applied — but the reparse after it did not
	// complete. Re-sending the batch would apply it twice; converge with a
	// read (GET, subtree) or an empty edit batch instead. Every other shed
	// code means the daemon acted on nothing.
	shedCodeParsePending = "parse_pending"
)

// writeShed renders a load-shedding response: Retry-After (whole seconds,
// rounded up, per RFC 9110) plus the structured JSON body.
func writeShed(w http.ResponseWriter, status int, code string, retry time.Duration, format string, args ...any) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, shedJSON{
		Error:        fmt.Sprintf(format, args...),
		Code:         code,
		RetryAfterMS: retry.Milliseconds(),
	})
}

func toDiagJSON(ds []incremental.Diagnostic) []diagnosticJSON {
	out := make([]diagnosticJSON, len(ds))
	for i, d := range ds {
		out[i] = diagnosticJSON{
			Offset: d.Offset, Length: d.Length, Line: d.Line, Col: d.Col,
			Expected: d.Expected, Region: d.Region,
		}
	}
	return out
}

func kindString(k dag.Kind) string {
	switch k {
	case dag.KindTerminal:
		return "terminal"
	case dag.KindProduction:
		return "production"
	case dag.KindChoice:
		return "choice"
	case dag.KindSeq:
		return "sequence"
	case dag.KindError:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// runSession executes fn on sess's shard through the bounded data-plane
// queue: a full queue sheds the request (errQueueFull → 429) instead of
// piling up behind a slow parse. A panic inside fn — a poisoned parse
// state, a library bug — is contained to this one request: the shard
// goroutine survives (see shardPool.run), the session, whose state can no
// longer be trusted, is closed and unregistered, and the caller gets an
// error wrapping errShardPanic.
func (d *Daemon) runSession(ctx context.Context, sess *session, fn func()) error {
	err := d.pool.runQueued(ctx, sess.shard, fn)
	if errors.Is(err, errShardPanic) {
		d.mets.panics.Add(1)
		d.Logf("daemon: session %s poisoned, closing: %v", sess.id, err)
		d.dropSession(sess)
	}
	return err
}

// dropSession closes and unregisters a session outside the normal DELETE
// path (panic containment, aborted creates). The closed flag is flipped on
// the session's shard; if the shard is wedged the registry entry still
// goes away, so the slot is freed either way.
func (d *Daemon) dropSession(sess *session) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d.pool.run(ctx, sess.shard, func() {
		sess.closed = true
		d.persistRemove(sess)
	})
	if _, ok := d.sessions.remove(sess.id); ok {
		d.mets.sessionsOpen.Add(-1)
		d.mets.sessionsClosed.Add(1)
		d.gov.Release(sess.shard, sess.memBytes)
	}
}

// writeShardError renders a shard-task failure: 429 + Retry-After when the
// shard's queue shed the request, 503 + Retry-After when the request's
// deadline expired (waiting in queue or mid-parse) or the watchdog killed
// a stalled parse, 500 when the task itself panicked. Panic details stay
// in the log, not the response.
func (d *Daemon) writeShardError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShardPanic):
		httpError(w, http.StatusInternalServerError, "internal error; session closed")
	case errors.Is(err, errQueueFull):
		d.mets.shedQueueFull.Add(1)
		writeShed(w, http.StatusTooManyRequests, shedCodeQueueFull, time.Second,
			"shard queue full; retry")
	case errors.Is(err, errShardStalled):
		writeShed(w, http.StatusServiceUnavailable, shedCodeStalled, 2*time.Second,
			"parse stalled beyond stall_timeout; session closed")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeShed(w, http.StatusServiceUnavailable, shedCodeDeadline, time.Second,
			"request deadline expired before the shard could serve it")
	case errors.Is(err, errPoolClosed):
		writeShed(w, http.StatusServiceUnavailable, shedCodeShutdown, 2*time.Second,
			"daemon shutting down")
	default:
		httpError(w, http.StatusServiceUnavailable, "shard unavailable: %v", err)
	}
}

// parseSession runs one parse of sess on its shard, updating metrics, the
// idle clock, and the session's governor account, and renders the outcome.
// The parse is registered with the stall watchdog: a parse the watchdog
// cancelled closes the session (its state can no longer be trusted to
// finish anything) and surfaces as errShardStalled. The bool reports
// whether the session was still open.
func (d *Daemon) parseSession(r *http.Request, sess *session) (outcomeJSON, bool, error) {
	var (
		oj      outcomeJSON
		open    bool
		stalled bool
	)
	err := d.runSession(r.Context(), sess, func() {
		if sess.closed {
			return
		}
		open = true
		sess.lastUsed = time.Now()
		start := time.Now()
		pctx, cancel := context.WithCancel(r.Context())
		rt := &runningTask{sessID: sess.id, started: start, cancel: cancel}
		d.watch[sess.shard].Store(rt)
		var out incremental.Outcome
		if sess.tolerant {
			out = sess.s.Do(pctx, incremental.Tolerant())
		} else {
			out = sess.s.Do(pctx)
		}
		d.watch[sess.shard].Store(nil)
		cancel()
		if rt.byWatchdog.Load() {
			// The watchdog had to kill this parse: close the session like a
			// panicked one — livelock and panic get the same containment.
			stalled = true
			sess.closed = true
			d.persistRemove(sess)
			if _, ok := d.sessions.remove(sess.id); ok {
				d.mets.sessionsOpen.Add(-1)
				d.mets.sessionsClosed.Add(1)
			}
			d.gov.Release(sess.shard, sess.memBytes)
			sess.memBytes = 0
			return
		}
		// The parse committed whatever was pending (the initial text, an
		// applied edit batch); the session is safe to park again.
		sess.pendingParse = false
		dur := time.Since(start)
		diags := sess.s.Diagnostics()
		d.mets.observeParse(&out, dur, len(diags))
		oj = outcomeJSON{
			Clean:        out.Clean,
			Isolated:     out.Isolated,
			ErrorRegions: out.ErrorRegions,
			Degraded:     out.Stats.BudgetPruned > 0,
			ParseMicros:  dur.Microseconds(),
			TextLen:      sess.s.Len(),
			Diagnostics:  toDiagJSON(diags),
		}
		if out.Err != nil {
			oj.Error = out.Err.Error()
			oj.BudgetTrip = errors.Is(out.Err, incremental.ErrBudget)
		}
		d.persistAfterParse(sess)
		d.accountParse(sess)
	})
	if err == nil && stalled {
		err = errShardStalled
	}
	return oj, open, err
}

// ---- data plane ----------------------------------------------------------

// Handler returns the data-plane HTTP handler: session lifecycle, edits,
// diagnostics, subtree queries, and one-shot batch parses. Every route
// passes through admission control first — the global in-flight cap sheds
// excess concurrency with 429 before it touches a session, and requests
// without a deadline get the config's default one, so work abandoned in a
// shard queue can be recognized and dropped.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", d.handleCreateSession)
	mux.HandleFunc("GET /sessions/{id}", d.handleGetSession)
	mux.HandleFunc("DELETE /sessions/{id}", d.handleDeleteSession)
	mux.HandleFunc("POST /sessions/{id}/edits", d.handleEdits)
	mux.HandleFunc("GET /sessions/{id}/diagnostics", d.handleDiagnostics)
	mux.HandleFunc("GET /sessions/{id}/subtree", d.handleSubtree)
	mux.HandleFunc("POST /parse", d.handleBatchParse)
	mux.HandleFunc("GET /languages", d.handleLanguages)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sn := d.snap.Load()
		cur := d.inflight.Add(1)
		defer d.inflight.Add(-1)
		if max := sn.cfg.MaxInflight; max > 0 && cur > int64(max) {
			d.mets.shedInflight.Add(1)
			writeShed(w, http.StatusTooManyRequests, shedCodeInflight, time.Second,
				"in-flight request cap (%d) reached", max)
			return
		}
		if dl := time.Duration(sn.cfg.DefaultDeadline); dl > 0 {
			if _, has := r.Context().Deadline(); !has {
				ctx, cancel := context.WithTimeout(r.Context(), dl)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		mux.ServeHTTP(w, r)
	})
}

func (d *Daemon) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sn := d.snap.Load()
	lang, ok := sn.langs[req.Language]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown language %q (serving %v)",
			req.Language, sn.languageNames())
		return
	}
	// Admission, cheapest gate first: above the hard watermark no new
	// session is accepted at all (the load balancer saw /healthz flip 503
	// before this starts firing).
	if d.gov.State() == govern.StateCritical {
		d.mets.shedMemory.Add(1)
		writeShed(w, http.StatusServiceUnavailable, shedCodeMemory, 2*time.Second,
			"memory hard watermark reached")
		return
	}
	ten := sn.tenant(req.Tenant)
	budget := ten.Budget
	if d.gov.OverSoft() {
		// Pressure mode: new admissions run under the degraded budget so
		// they cannot deepen the overload.
		if pb := sn.cfg.PressureBudget; pb != (incremental.Budget{}) {
			budget = pb
			d.mets.degradedAdmits.Add(1)
		}
	}
	sess := &session{
		tenant:   req.Tenant,
		langName: req.Language,
		lang:     lang,
		tolerant: req.Tolerant,
		lastUsed: time.Now(),
		// Not parkable until the first parse commits the initial text.
		pendingParse: true,
	}
	sess.s = incremental.NewSession(lang, req.Text, incremental.WithBudget(budget))
	if !d.sessions.add(sess, d.pool, sn.cfg.MaxSessions, ten.MaxSessions) {
		d.mets.sessionsDenied.Add(1)
		writeShed(w, http.StatusTooManyRequests, shedCodeQuota, 5*time.Second,
			"session quota exhausted (tenant %q)", req.Tenant)
		return
	}
	// Charge the pre-parse estimate (the source text and fixed session
	// state; the first parse settles the real figure). A refusal here is
	// the hard watermark holding as an invariant, not just a threshold.
	est := int64(len(req.Text)) + 4096
	if !d.gov.TryCharge(sess.shard, est) {
		d.sessions.remove(sess.id)
		d.mets.shedMemory.Add(1)
		writeShed(w, http.StatusServiceUnavailable, shedCodeMemory, 2*time.Second,
			"memory hard watermark reached")
		return
	}
	sess.memBytes = est
	d.mets.sessionsOpen.Add(1)
	d.mets.sessionsOpened.Add(1)

	oj, open, err := d.parseSession(r, sess)
	if err != nil {
		// The client is getting an error, so it never learns the ID and
		// can never DELETE it: drop the session now (idempotent if the
		// panic path already did) or an aborted create leaks its quota
		// slot forever.
		d.dropSession(sess)
		d.writeShardError(w, err)
		return
	}
	if !open {
		// Evicted between add and first parse — only possible with a TTL of
		// ~0; report it like any other vanished session.
		httpError(w, http.StatusNotFound, "session expired before first parse")
		return
	}
	writeJSON(w, http.StatusCreated, sessionJSON{
		ID: sess.id, Language: sess.langName, Tenant: sess.tenant,
		Tolerant: sess.tolerant, Outcome: oj,
	})
}

// lookup resolves {id} or writes a 404, transparently restoring the
// session from the persistence directory when it is not live (evicted to
// disk, or persisted by a previous process before a restart). A restore
// the memory governor refuses is a 503 shed, not a 404: the session
// exists, safely parked, and a retry after relief will revive it.
func (d *Daemon) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sess, ok := d.sessions.get(id)
	if !ok && d.persist != nil {
		var shed bool
		sess, ok, shed = d.restoreSession(id)
		if shed {
			d.mets.shedMemory.Add(1)
			writeShed(w, http.StatusServiceUnavailable, shedCodeMemory, 2*time.Second,
				"memory hard watermark reached; session %q stays parked", id)
			return nil, false
		}
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no session %q", id)
		return nil, false
	}
	return sess, true
}

func (d *Daemon) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.lookup(w, r)
	if !ok {
		return
	}
	var (
		textLen int
		diags   int
		open    bool
	)
	err := d.runSession(r.Context(), sess, func() {
		if sess.closed {
			return
		}
		open = true
		sess.lastUsed = time.Now()
		textLen = sess.s.Len()
		diags = len(sess.s.Diagnostics())
	})
	if err != nil {
		d.writeShardError(w, err)
		return
	}
	if !open {
		d.writeSessionGone(w, sess)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": sess.id, "language": sess.langName, "tenant": sess.tenant,
		"tolerant": sess.tolerant, "text_len": textLen, "diagnostics": diags,
	})
}

func (d *Daemon) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.lookup(w, r)
	if !ok {
		return
	}
	err := d.runSession(r.Context(), sess, func() {
		if sess.closed {
			return
		}
		sess.closed = true
		d.persistRemove(sess)
		if _, removed := d.sessions.remove(sess.id); removed {
			d.mets.sessionsOpen.Add(-1)
			d.mets.sessionsClosed.Add(1)
		}
	})
	if err != nil {
		d.writeShardError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) handleEdits(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.lookup(w, r)
	if !ok {
		return
	}
	var req editsRequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var (
		open    bool
		badEdit error
	)
	err := d.runSession(r.Context(), sess, func() {
		if sess.closed {
			return
		}
		open = true
		// Validate the whole batch against the running document length
		// before touching the text: a 400 must imply no mutation, or the
		// client's view silently diverges from the server's document.
		// The comparisons are overflow-safe — a huge Offset or Remove
		// must not wrap negative and slip past the check into a panic.
		n := sess.s.Len()
		for i, e := range req.Edits {
			if e.Offset < 0 || e.Remove < 0 || e.Offset > n || e.Remove > n-e.Offset {
				badEdit = fmt.Errorf("edit %d: range [%d,+%d) outside document of %d bytes",
					i, e.Offset, e.Remove, n)
				return
			}
			n += len(e.Insert) - e.Remove
		}
		// Journal the accepted batch — appended and fsynced — before the
		// first edit is applied: any state a client sees acknowledged is
		// on disk, and a kill -9 between here and the response replays it.
		d.persistAppend(sess, req.Edits)
		for _, e := range req.Edits {
			sess.s.Edit(e.Offset, e.Remove, e.Insert)
		}
		// Applied but not yet reparsed: block parking until the parse
		// task commits (see parkSession).
		sess.pendingParse = true
	})
	if err != nil {
		d.writeShardError(w, err)
		return
	}
	if !open {
		d.writeSessionGone(w, sess)
		return
	}
	if badEdit != nil {
		httpError(w, http.StatusBadRequest, "%v", badEdit)
		return
	}
	d.mets.edits.Add(int64(len(req.Edits)))

	oj, open, err := d.parseSession(r, sess)
	if err != nil {
		// The batch is journaled and applied — only the reparse failed.
		// This must not look like the retry-safe sheds: re-sending the
		// batch would apply it twice.
		if errors.Is(err, errShardPanic) {
			httpError(w, http.StatusInternalServerError, "internal error; session closed")
			return
		}
		d.mets.shedParsePending.Add(1)
		writeShed(w, http.StatusServiceUnavailable, shedCodeParsePending, time.Second,
			"edit batch accepted and durable, but the reparse did not complete (%v); converge with a read or an empty batch, do not re-send", err)
		return
	}
	if !open {
		d.writeSessionGone(w, sess)
		return
	}
	writeJSON(w, http.StatusOK, oj)
}

// writeSessionGone renders the fate of a session that closed between
// lookup and its shard task: parked ones are retryable — the state is on
// disk and the next attempt restores it — deleted ones are a plain 404.
func (d *Daemon) writeSessionGone(w http.ResponseWriter, sess *session) {
	if sess.parked {
		d.mets.shedMemory.Add(1)
		writeShed(w, http.StatusServiceUnavailable, shedCodeMemory, time.Second,
			"session %q parked under memory pressure; retry to restore", sess.id)
		return
	}
	httpError(w, http.StatusNotFound, "no session %q", sess.id)
}

func (d *Daemon) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.lookup(w, r)
	if !ok {
		return
	}
	var (
		diags []incremental.Diagnostic
		open  bool
	)
	err := d.runSession(r.Context(), sess, func() {
		if sess.closed {
			return
		}
		open = true
		sess.lastUsed = time.Now()
		diags = sess.s.Diagnostics()
	})
	if err != nil {
		d.writeShardError(w, err)
		return
	}
	if !open {
		d.writeSessionGone(w, sess)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"diagnostics": toDiagJSON(diags)})
}

// maxOutlineBytes caps the rendered subtree outline; deep dags can render
// arbitrarily large.
const maxOutlineBytes = 64 << 10

// capOutline cuts an outline longer than maxOutlineBytes and marks the
// cut. The cut backs up to the start of a character, so it never splits a
// multi-byte one such as the outline's « and » (the JSON encoding would
// turn the fragment into U+FFFD).
func capOutline(outline string) string {
	if len(outline) <= maxOutlineBytes {
		return outline
	}
	cut := maxOutlineBytes
	for cut > 0 && !utf8.RuneStart(outline[cut]) {
		cut--
	}
	return outline[:cut] + "\n… (truncated)\n"
}

func (d *Daemon) handleSubtree(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.lookup(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	offset, err1 := strconv.Atoi(q.Get("offset"))
	length, err2 := strconv.Atoi(q.Get("length"))
	if err1 != nil || err2 != nil || offset < 0 || length < 0 {
		httpError(w, http.StatusBadRequest, "subtree needs non-negative integer offset= and length=")
		return
	}
	var (
		resp  subtreeJSON
		found bool
		open  bool
	)
	err := d.runSession(r.Context(), sess, func() {
		if sess.closed {
			return
		}
		open = true
		sess.lastUsed = time.Now()
		n := sess.s.Subtree(offset, length)
		if n == nil {
			return
		}
		off, ln, ok := sess.s.NodeSpan(n)
		if !ok {
			return
		}
		found = true
		resp = subtreeJSON{
			Symbol:  sess.lang.SymName(n.Sym),
			Kind:    kindString(n.Kind),
			Offset:  off,
			Length:  ln,
			Outline: capOutline(incremental.FormatDag(sess.lang, n)),
		}
	})
	if err != nil {
		d.writeShardError(w, err)
		return
	}
	if !open {
		d.writeSessionGone(w, sess)
		return
	}
	if !found {
		httpError(w, http.StatusNotFound, "no committed subtree covers [%d,%d) (parse first?)",
			offset, offset+length)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleBatchParse(w http.ResponseWriter, r *http.Request) {
	var req batchRequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sn := d.snap.Load()
	lang, ok := sn.langs[req.Language]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown language %q (serving %v)",
			req.Language, sn.languageNames())
		return
	}
	if len(req.Files) == 0 {
		httpError(w, http.StatusBadRequest, "no files")
		return
	}
	d.mets.batchRequests.Add(1)
	inputs := make([]engine.Input, len(req.Files))
	for i, f := range req.Files {
		inputs[i] = engine.Input{Name: f.Name, Source: f.Source}
	}
	policy := sn.cfg.Batch
	if req.Tolerant {
		policy.Tolerant = true
	}
	batch, err := engine.ParseAll(r.Context(), lang, inputs, engine.WithPolicy(policy))
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "batch aborted: %v", err)
		return
	}
	resp := batchResponseJSON{
		Files:      make([]batchResultJSON, len(batch.Results)),
		Failed:     batch.Aggregate.Failed,
		WallMicros: batch.Aggregate.Wall.Microseconds(),
	}
	for i := range batch.Results {
		res := &batch.Results[i]
		out := batchResultJSON{
			Name:        res.Name,
			OK:          res.Err == nil,
			Degraded:    res.Degraded,
			BudgetTrips: res.BudgetTrips,
			Diagnostics: toDiagJSON(res.Diagnostics),
			Micros:      res.Duration.Microseconds(),
		}
		if res.Err != nil {
			out.Error = res.Err.Error()
		}
		if errors.Is(res.Err, incremental.ErrBudget) {
			d.mets.budgetTrips.Add(1)
		}
		resp.Files[i] = out
	}
	d.mets.batchFiles.Add(int64(batch.Aggregate.Files))
	d.mets.batchFailed.Add(int64(batch.Aggregate.Failed))
	d.mets.degraded.Add(int64(batch.Aggregate.Degraded))
	d.mets.diagnostics.Add(int64(batch.Aggregate.Diagnostics))
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleLanguages(w http.ResponseWriter, r *http.Request) {
	sn := d.snap.Load()
	writeJSON(w, http.StatusOK, map[string]any{"languages": sn.languageNames()})
}

// ---- admin plane ---------------------------------------------------------

// AdminHandler returns the admin-plane HTTP handler: health, config
// introspection, hot reload, and metrics. Bind it to loopback only.
func (d *Daemon) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /config", d.handleGetConfig)
	mux.HandleFunc("POST /config", d.handlePostConfig)
	mux.HandleFunc("POST /reload", d.handleReload)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

// handleHealthz is readiness-aware: "ready" below the soft watermark,
// "degraded" (still 200 — serving, but load balancers should start
// draining) under pressure, 503 "overloaded" at or above the hard
// watermark, before hard shedding starts refusing session creation.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := d.snap.Load()
	soft, hard := d.gov.Watermarks()
	body := map[string]any{
		"ok":           true,
		"state":        "ready",
		"version":      sn.version,
		"sessions":     d.sessions.len(),
		"languages":    len(sn.langs),
		"memory_bytes": d.gov.Global(),
	}
	if soft > 0 || hard > 0 {
		body["memory_soft_bytes"], body["memory_hard_bytes"] = soft, hard
	}
	switch d.gov.State() {
	case govern.StateCritical:
		body["ok"], body["state"] = false, "overloaded"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case govern.StatePressure:
		body["state"] = "degraded"
		writeJSON(w, http.StatusOK, body)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}

func (d *Daemon) handleGetConfig(w http.ResponseWriter, r *http.Request) {
	sn := d.snap.Load()
	writeJSON(w, http.StatusOK, map[string]any{"version": sn.version, "config": sn.cfg})
}

func (d *Daemon) handlePostConfig(w http.ResponseWriter, r *http.Request) {
	cfg, err := DecodeConfig(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad config: %v", err)
		return
	}
	version, err := d.Reload(cfg)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "reload rejected: %v (config v%d still active)", err, version)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": version})
}

func (d *Daemon) handleReload(w http.ResponseWriter, r *http.Request) {
	var cfg Config
	if d.ConfigPath != "" {
		data, err := os.ReadFile(d.ConfigPath)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "reload rejected: %v", err)
			return
		}
		if cfg, err = DecodeConfig(bytes.NewReader(data)); err != nil {
			httpError(w, http.StatusUnprocessableEntity, "reload rejected: %s: %v", d.ConfigPath, err)
			return
		}
	} else {
		// No config file: re-apply the active config, which re-reads the
		// artifact directories (the operator's path for shipping new
		// languages without editing config).
		cfg, _ = d.Snapshot()
	}
	version, err := d.Reload(cfg)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "reload rejected: %v (config v%d still active)", err, version)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": version})
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.mets.write(w)
	d.writeGovernorMetrics(w)
}

// writeGovernorMetrics renders the memory governor's gauges: watermarks,
// the global account, its state, and the per-shard split.
func (d *Daemon) writeGovernorMetrics(w io.Writer) {
	soft, hard := d.gov.Watermarks()
	fmt.Fprintf(w, "# HELP iglrd_memory_bytes Accounted live session bytes.\n# TYPE iglrd_memory_bytes gauge\niglrd_memory_bytes %d\n", d.gov.Global())
	fmt.Fprintf(w, "# HELP iglrd_memory_soft_bytes Soft (pressure) watermark; 0 = unset.\n# TYPE iglrd_memory_soft_bytes gauge\niglrd_memory_soft_bytes %d\n", soft)
	fmt.Fprintf(w, "# HELP iglrd_memory_hard_bytes Hard (refusal) watermark; 0 = unset.\n# TYPE iglrd_memory_hard_bytes gauge\niglrd_memory_hard_bytes %d\n", hard)
	fmt.Fprintf(w, "# HELP iglrd_memory_state Governor state: 0 normal, 1 pressure, 2 critical.\n# TYPE iglrd_memory_state gauge\niglrd_memory_state %d\n", int(d.gov.State()))
	fmt.Fprintf(w, "# HELP iglrd_shard_memory_bytes Accounted live bytes per shard.\n# TYPE iglrd_shard_memory_bytes gauge\n")
	for i := 0; i < d.gov.Shards(); i++ {
		fmt.Fprintf(w, "iglrd_shard_memory_bytes{shard=\"%d\"} %d\n", i, d.gov.Shard(i))
	}
	fmt.Fprintf(w, "# HELP iglrd_inflight_requests Data-plane requests currently executing.\n# TYPE iglrd_inflight_requests gauge\niglrd_inflight_requests %d\n", d.inflight.Load())
}
