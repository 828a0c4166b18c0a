package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
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
	// Tolerant makes every parse of this session run under error
	// isolation (Do(Tolerant())): syntax errors are quarantined as
	// diagnostics instead of failing the parse, and the text is kept.
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

// Shed codes, one per admission-control gate. Every shed may be re-sent:
// the request's task never ran, or it ran and left nothing behind (a
// refused create or restore), or its parse stalled and closed the session.
const (
	shedCodeQueueFull = "queue_full"
	shedCodeInflight  = "inflight_cap"
	shedCodeMemory    = "memory_pressure"
	shedCodeQuota     = "quota"
	shedCodeStalled   = "stalled"
	shedCodeDeadline  = "deadline"
	shedCodeShutdown  = "shutdown"
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

// runSession runs fn as the one task of a request on session id's shard,
// through the bounded data-plane queue: a full queue sheds the request
// (errQueueFull → 429) instead of piling up behind a slow parse. The task
// looks the session up, restoring it from the persistence directory when
// it is not live (parked to disk, or persisted by a previous process),
// and calls fn with it; so the lookup, a restore and fn are ordered with
// every other operation on the session, and no two requests race a
// restore. It reports whether fn ran; when it did not, the answer is
// written: 404 for an unknown session, 503 for a restore the memory
// governor refused (the session stays parked, and a retry after relief
// revives it), a shed for a task that never ran, 500 for a panic (see
// shardFailed).
func (d *Daemon) runSession(w http.ResponseWriter, r *http.Request, fn func(sess *session)) bool {
	id := r.PathValue("id")
	var (
		sess *session
		shed bool
	)
	err := d.pool.runQueued(r.Context(), d.pool.indexFor(id), func() {
		var live bool
		if sess, live = d.sessions.get(id); !live && d.persist != nil {
			sess, shed = d.restoreSession(id)
		}
		if sess != nil {
			sess.lastUsed = time.Now()
			fn(sess)
		}
	})
	switch {
	case err != nil:
		d.shardFailed(w, err, sess)
	case shed:
		d.mets[mShedMemory].Add(1)
		writeShed(w, http.StatusServiceUnavailable, shedCodeMemory, 2*time.Second,
			"memory hard watermark reached; session %q stays parked", id)
	case sess == nil:
		httpError(w, http.StatusNotFound, "no session %q", id)
	default:
		return true
	}
	return false
}

// closeSession is the one close path: it marks sess closed, unregisters
// it and returns its governor charge. memBytes is zeroed, so the charge is
// released exactly once however many paths close the session. It reports
// whether this call removed the registry entry; each caller counts the
// close in its own metric and does its own persistence step. Runs on the
// session's shard goroutine (or in dropSession once that shard is lost).
func (d *Daemon) closeSession(sess *session) bool {
	sess.closed = true
	d.gov.Release(sess.shard, sess.memBytes)
	sess.memBytes = 0
	_, ok := d.sessions.remove(sess.id)
	return ok
}

// dropSession closes and unregisters a session whose task panicked. The
// close runs on the session's shard; if the shard is wedged or gone the
// task never runs and the close happens here, so the slot and the charge
// are freed either way.
func (d *Daemon) dropSession(sess *session) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var closed bool
	if err := d.pool.run(ctx, sess.shard, func() {
		d.persistRemove(sess)
		closed = d.closeSession(sess)
	}); err != nil {
		closed = d.closeSession(sess)
	}
	if closed {
		d.mets[mSessionsClosed].Add(1)
	}
}

// shardFailed answers a request whose shard task failed: 429 +
// Retry-After when the shard's queue shed it, 503 + Retry-After when its
// deadline expired in the queue, its parse stalled past stall_timeout or
// the pool is shut down, 500 when the task panicked. A shed task changed
// nothing; a stalled parse closed its session. A panic is contained to
// its request: the shard goroutine survives (see shardPool.run), and sess,
// the session the task held, whose state can no longer be trusted, is
// closed and unregistered. Panic details stay in the log, not the
// response.
func (d *Daemon) shardFailed(w http.ResponseWriter, err error, sess *session) {
	switch {
	case errors.Is(err, errShardPanic):
		d.mets[mPanics].Add(1)
		if sess == nil {
			d.Logf("daemon: shard task panicked: %v", err)
		} else {
			d.Logf("daemon: session %s poisoned, closing: %v", sess.id, err)
			d.dropSession(sess)
		}
		httpError(w, http.StatusInternalServerError, "internal error; session closed")
	case errors.Is(err, errQueueFull):
		d.mets[mShedQueueFull].Add(1)
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

// applyAndParse is the one way text reaches a session, live and in journal
// replay: it validates the whole batch against the running document
// length, journals it, applies it and parses. A batch that does not fit
// changes nothing and is returned as the error; the comparisons are
// overflow-safe, so a huge Offset or Remove cannot wrap negative and slip
// past the check into a panic. The parse runs under ctx, bounded by stall
// when it is positive; its outcome's error is data, and a parse the stall
// bound stopped returns errShardStalled. A create's first parse passes no
// edits.
func (d *Daemon) applyAndParse(ctx context.Context, sess *session, edits []editJSON, stall time.Duration) (out incremental.Outcome, took time.Duration, err error) {
	n := sess.s.Len()
	for i, e := range edits {
		if e.Offset < 0 || e.Remove < 0 || e.Offset > n || e.Remove > n-e.Offset {
			return out, 0, fmt.Errorf("edit %d: range [%d,+%d) outside document of %d bytes",
				i, e.Offset, e.Remove, n)
		}
		n += len(e.Insert) - e.Remove
	}
	// Journal the accepted batch — appended and fsynced — before the
	// first edit is applied: any state a client sees acknowledged is on
	// disk, and a kill -9 between here and the response replays it. A
	// create's session and a replaying restore's have no journal yet.
	d.persistAppend(sess, edits)
	for _, e := range edits {
		sess.s.Edit(e.Offset, e.Remove, e.Insert)
	}
	if stall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, stall, errShardStalled)
		defer cancel()
	}
	start := time.Now()
	if sess.tolerant {
		out = sess.s.Do(ctx, incremental.Tolerant())
	} else {
		out = sess.s.Do(ctx)
	}
	took = time.Since(start)
	if out.Err != nil && context.Cause(ctx) == errShardStalled {
		err = errShardStalled
	}
	return out, took, err
}

// editSession runs a request's batch through applyAndParse on sess's
// shard and settles the rest of the request: metrics, persistence and the
// governor account. With a stall_timeout, the parser polls its context
// every 64 rounds; a parse that timeout stopped closes the session, whose
// state can no longer be trusted to finish anything, and returns
// errShardStalled. A parse the request's own deadline cancelled is not a
// failure of the request: the batch stands, and the outcome carries the
// error. A batch that does not fit changes nothing and is returned as the
// error.
func (d *Daemon) editSession(ctx context.Context, sess *session, edits []editJSON) (outcomeJSON, error) {
	stall := time.Duration(d.snap.Load().cfg.StallTimeout)
	out, took, err := d.applyAndParse(ctx, sess, edits, stall)
	if errors.Is(err, errShardStalled) {
		// Livelock and panic get the same containment.
		d.mets[mWatchdogCancels].Add(1)
		d.Logf("daemon: cancelled stalled parse on shard %d (session %s, running %v > stall_timeout %v)",
			sess.shard, sess.id, took.Round(time.Millisecond), stall)
		d.persistRemove(sess)
		if d.closeSession(sess) {
			d.mets[mSessionsClosed].Add(1)
		}
		return outcomeJSON{}, err
	}
	if err != nil {
		return outcomeJSON{}, err
	}
	d.mets[mEdits].Add(int64(len(edits)))
	diags := sess.s.Diagnostics()
	d.observeParse(&out, took, len(diags))
	oj := outcomeJSON{
		Clean:        out.Clean,
		Isolated:     out.Isolated,
		ErrorRegions: out.ErrorRegions,
		Degraded:     out.Stats.BudgetPruned > 0,
		ParseMicros:  took.Microseconds(),
		TextLen:      sess.s.Len(),
		Diagnostics:  toDiagJSON(diags),
	}
	if out.Err != nil {
		oj.Error = out.Err.Error()
		oj.BudgetTrip = errors.Is(out.Err, incremental.ErrBudget)
	}
	d.persistAfterParse(sess)
	d.accountParse(sess)
	return oj, nil
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
			d.mets[mShedInflight].Add(1)
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
		d.mets[mShedMemory].Add(1)
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
			d.mets[mDegradedAdmits].Add(1)
		}
	}
	id := d.sessions.reserveID()
	sess := &session{
		id:       id,
		tenant:   req.Tenant,
		langName: req.Language,
		lang:     lang,
		shard:    d.pool.indexFor(id),
		tolerant: req.Tolerant,
		s:        incremental.NewSession(lang, req.Text, incremental.WithBudget(budget)),
		lastUsed: time.Now(),
	}
	// One task registers the session, parses, persists and accounts it, so
	// no other task sees the session before its first parse, and a create
	// whose task never ran left nothing behind.
	var (
		oj               outcomeJSON
		denied, noMemory bool
		perr             error
	)
	err := d.pool.runQueued(r.Context(), sess.shard, func() {
		if !d.sessions.add(sess, sn.cfg.MaxSessions, ten.MaxSessions) {
			denied = true
			return
		}
		// Charge the pre-parse estimate (the source text and fixed session
		// state; the first parse settles the real figure). A refusal here
		// is the hard watermark holding as an invariant, not just a
		// threshold.
		est := int64(len(req.Text)) + 4096
		if !d.gov.TryCharge(sess.shard, est) {
			d.sessions.remove(sess.id)
			noMemory = true
			return
		}
		sess.memBytes = est
		d.mets[mSessionsOpened].Add(1)
		oj, perr = d.editSession(r.Context(), sess, nil)
	})
	switch {
	case err != nil:
		d.shardFailed(w, err, sess)
	case denied:
		d.mets[mSessionsDenied].Add(1)
		writeShed(w, http.StatusTooManyRequests, shedCodeQuota, 5*time.Second,
			"session quota exhausted (tenant %q)", req.Tenant)
	case noMemory:
		d.mets[mShedMemory].Add(1)
		writeShed(w, http.StatusServiceUnavailable, shedCodeMemory, 2*time.Second,
			"memory hard watermark reached")
	case perr != nil:
		d.shardFailed(w, perr, nil)
	default:
		writeJSON(w, http.StatusCreated, sessionJSON{
			ID: sess.id, Language: sess.langName, Tenant: sess.tenant,
			Tolerant: sess.tolerant, Outcome: oj,
		})
	}
}

func (d *Daemon) handleGetSession(w http.ResponseWriter, r *http.Request) {
	var textLen, diags int
	var sess *session
	if !d.runSession(w, r, func(s *session) {
		sess = s
		textLen = s.s.Len()
		diags = len(s.s.Diagnostics())
	}) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": sess.id, "language": sess.langName, "tenant": sess.tenant,
		"tolerant": sess.tolerant, "text_len": textLen, "diagnostics": diags,
	})
}

// handleDeleteSession closes a live session, or removes a parked one's
// artifacts without restoring it, in one task on the ID's shard.
func (d *Daemon) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		sess  *session
		found bool
	)
	err := d.pool.runQueued(r.Context(), d.pool.indexFor(id), func() {
		var live bool
		if sess, live = d.sessions.get(id); live {
			d.persistRemove(sess)
			found = d.closeSession(sess)
		} else {
			found = d.persist != nil && validSessionID(id) && d.persist.removeArtifacts(id)
		}
	})
	switch {
	case err != nil:
		d.shardFailed(w, err, sess)
	case !found:
		httpError(w, http.StatusNotFound, "no session %q", id)
	default:
		d.mets[mSessionsClosed].Add(1)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (d *Daemon) handleEdits(w http.ResponseWriter, r *http.Request) {
	var req editsRequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var (
		oj  outcomeJSON
		err error
	)
	if !d.runSession(w, r, func(sess *session) {
		oj, err = d.editSession(r.Context(), sess, req.Edits)
	}) {
		return
	}
	switch {
	case errors.Is(err, errShardStalled):
		d.shardFailed(w, err, nil)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, oj)
	}
}

func (d *Daemon) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	var diags []incremental.Diagnostic
	if !d.runSession(w, r, func(sess *session) {
		diags = sess.s.Diagnostics()
	}) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"diagnostics": toDiagJSON(diags)})
}

// maxOutlineBytes caps the rendered subtree outline; deep dags can render
// arbitrarily large.
const maxOutlineBytes = 64 << 10

// errOutlineFull ends a render once outlineBuffer holds all capOutline
// reads.
var errOutlineFull = errors.New("daemon: outline cap reached")

// outlineBuffer keeps the first maxOutlineBytes+1 bytes written to it —
// enough for capOutline to see that the outline is long and where to cut
// it — and refuses the rest, which stops the render. Past 4 KB it grows
// straight to the cap instead of doubling.
type outlineBuffer struct{ strings.Builder }

func (b *outlineBuffer) Write(p []byte) (int, error) {
	room := maxOutlineBytes + 1 - b.Len()
	if n := b.Len() + len(p); n > b.Cap() && n > 4<<10 {
		b.Grow(room)
	}
	if len(p) > room {
		b.Builder.Write(p[:room])
		return room, errOutlineFull
	}
	return b.Builder.Write(p)
}

// renderOutline returns capOutline(FormatDag(lang, n)), byte for byte,
// without rendering the outline past the cap: the root of a 16,000-line
// file renders ~10 MB.
func renderOutline(lang *incremental.Language, n *incremental.Node) string {
	var b outlineBuffer
	incremental.FormatDagTo(&b, lang, n) // only errOutlineFull, at the cap
	return capOutline(b.String())
}

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
	)
	if !d.runSession(w, r, func(sess *session) {
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
			Outline: renderOutline(sess.lang, n),
		}
	}) {
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
	d.mets[mBatchRequests].Add(1)
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
			d.mets[mBudgetTrips].Add(1)
		}
		resp.Files[i] = out
	}
	d.mets[mBatchFiles].Add(int64(batch.Aggregate.Files))
	d.mets[mBatchFailed].Add(int64(batch.Aggregate.Failed))
	d.mets[mDegraded].Add(int64(batch.Aggregate.Degraded))
	d.mets[mDiagnostics].Add(int64(batch.Aggregate.Diagnostics))
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
	d.writeMetrics(w)
}
