package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	incremental "iglr"
	"iglr/daemon/client"
	"iglr/internal/faultinject"

	"context"
	"os"
)

// pathologicalSrc is the ambiguity fixture shared with the budget tests:
// 120 bytes of expr-ambiguous input whose unbudgeted forest saturates the
// parse counter.
func pathologicalSrc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../testdata/pathological_expr.txt")
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// checkShed verifies a client error is a well-formed shed: 429/503 with a
// machine-readable code and a positive retry hint. Anything else is a
// protocol violation under overload.
func checkShed(err error) error {
	var se *client.StatusError
	if !errors.As(err, &se) {
		return fmt.Errorf("non-status error under load: %w", err)
	}
	if !se.Shed() {
		return fmt.Errorf("non-shed failure under load: %w", se)
	}
	if se.Code == "" {
		return fmt.Errorf("shed response missing code: %w", se)
	}
	if se.RetryAfter <= 0 {
		return fmt.Errorf("shed response missing retry hint: %w", se)
	}
	return nil
}

// exprOutline is the correctness oracle: the committed-dag rendering of
// text parsed by an independent in-process session. The expr grammar is
// unambiguous, so budgets (including the degraded pressure budget) cannot
// change its tree.
func exprOutline(t *testing.T, text string) string {
	t.Helper()
	lang, ok := incremental.BundledLanguage("expr")
	if !ok {
		t.Fatal("expr not bundled")
	}
	s := incremental.NewSession(lang, text)
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatalf("oracle parse of %q: %v", text, out.Err)
	}
	return incremental.FormatDag(lang, out.Root)
}

// pollMetric scrapes the admin plane until the metric reaches at least
// want, or the deadline passes.
func pollMetric(t *testing.T, d *Daemon, name string, want int64, timeout time.Duration) int64 {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := metricValue(t, scrapeMetrics(t, d), name)
		if v >= want || time.Now().After(deadline) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOverloadChaos is the overload acceptance harness: a small-watermark,
// slow-disk daemon is hammered by concurrent clients — half well-behaved
// expr editors, half ambiguity bombs that pile up live bytes — while a
// sampler watches the governor. The invariants:
//
//   - the accounted memory never exceeds the hard watermark, at any instant;
//   - every refusal is a proper shed (429/503, code, Retry-After), never a
//     500 or a hang;
//   - accepted requests return correct trees (byte-identical to an
//     independent parse), even when their session was pressure-evicted and
//     lazily restored in between;
//   - after the storm drains and the daemon shuts down, no goroutines leak.
//
// Run with -race; the value of the harness is the interleavings it forces.
func TestOverloadChaos(t *testing.T) {
	// A small session's accounted footprint is ~60 KiB (pooled arenas, GSS
	// chunks, parser stacks) and a budget-2 ambiguity bomb runs to a few
	// hundred KiB — the watermarks sit a handful of sessions up, so the
	// storm crosses soft quickly and brushes hard without any single
	// session exceeding it.
	const (
		hardBytes   = 12 << 20
		softBytes   = 512 << 10
		workers     = 12
		iters       = 4
		maxInflight = 8
	)
	baseline := runtime.NumGoroutine()

	// Slow disk: every fsync in the persistence layer stalls 1ms, so
	// pressure evictions contend with the parse traffic they relieve.
	faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
		Point: faultinject.PersistSync, Do: faultinject.ActDelay,
		Sleep: time.Millisecond, Every: 1,
	}))
	defer faultinject.Deactivate()

	cfg := Config{
		Bundled:         []string{"expr", "expr-ambiguous"},
		Persist:         Persist{Dir: t.TempDir()},
		Shards:          4,
		QueueDepth:      16,
		MaxInflight:     maxInflight,
		DefaultDeadline: Duration(10 * time.Second),
		MemorySoftBytes: softBytes,
		MemoryHardBytes: hardBytes,
		DefaultTenant:   Tenant{Budget: incremental.Budget{MaxAlternatives: 2}},
		PressureBudget:  incremental.Budget{MaxAlternatives: 1},
	}
	d := crashableDaemon(t, cfg)

	// Governor sampler: the hard watermark is an instantaneous ceiling,
	// not a between-sweeps average.
	var peak atomic.Int64
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-samplerStop:
				return
			case <-time.After(time.Millisecond):
			}
			if g := d.gov.Global(); g > peak.Load() {
				peak.Store(g)
			}
		}
	}()

	cl := client.New("http://"+d.Addr().String(), client.Options{
		Timeout: 10 * time.Second, MaxRetries: 8,
		BaseBackoff: 2 * time.Millisecond, MaxBackoff: 40 * time.Millisecond,
	})
	patho := pathologicalSrc(t)

	var (
		mu            sync.Mutex
		failures      []string
		shedExhausted int                   // requests that stayed shed through all retries
		verified      int                   // correctness checks that ran to completion
		pressureIDs   []string              // ambiguity sessions left open to build pressure
		pressureTrees = map[string]string{} // id -> outline recorded at creation
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	shed := func(err error) {
		if perr := checkShed(err); perr != nil {
			fail("%v", perr)
			return
		}
		mu.Lock()
		shedExhausted++
		mu.Unlock()
	}

	ctx := context.Background()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for it := 0; it < iters; it++ {
				if w%2 == 0 {
					// Correctness lane: unambiguous sessions, verified
					// against the oracle, closed when done.
					text := fmt.Sprintf("%c+%d*(b-%d)/c", 'a'+byte(w%26), it+1, w+1)
					s, err := cl.CreateSession(ctx, "expr", text, "", false)
					if err != nil {
						shed(err)
						continue
					}
					final := text + "+9"
					out, err := cl.Edits(ctx, s.ID, []client.Edit{{Offset: len(text), Insert: "+9"}})
					if err != nil {
						shed(err)
						cl.Close(ctx, s.ID)
						continue
					}
					if !out.Clean || out.TextLen != len(final) {
						fail("edit outcome for %q: %+v", final, out)
					}
					sub, err := cl.Subtree(ctx, s.ID, 0, len(final))
					if err != nil {
						shed(err)
						cl.Close(ctx, s.ID)
						continue
					}
					got, _ := sub["outline"].(string)
					if want := exprOutline(t, final); got != want {
						fail("wrong tree for %q under load:\n got: %s\nwant: %s", final, got, want)
					}
					mu.Lock()
					verified++
					mu.Unlock()
					cl.Close(ctx, s.ID)
				} else {
					// Pressure lane: ambiguity bombs left open and idle, so
					// live bytes climb and the janitor must evict to disk.
					s, err := cl.CreateSession(ctx, "expr-ambiguous", patho, "", false)
					if err != nil {
						shed(err)
						continue
					}
					sub, err := cl.Subtree(ctx, s.ID, 0, len(patho))
					if err != nil {
						shed(err)
						continue
					}
					outline, _ := sub["outline"].(string)
					mu.Lock()
					pressureIDs = append(pressureIDs, s.ID)
					if outline != "" {
						pressureTrees[s.ID] = outline
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if verified == 0 {
		t.Error("no correctness check completed; the harness only ever shed")
	}
	t.Logf("chaos: %d trees verified, %d requests shed through all retries, %d pressure sessions",
		verified, shedExhausted, len(pressureIDs))

	// The open ambiguity sessions hold the fleet over the soft watermark;
	// the janitor (or hard-watermark relief during the storm) must have
	// parked idle sessions to disk.
	if v := pollMetric(t, d, "iglrd_pressure_evictions_total", 1, 5*time.Second); v < 1 {
		t.Errorf("pressure_evictions_total = %d, want >= 1 (global=%d soft=%d)",
			v, d.gov.Global(), softBytes)
	}

	// Byte-identical across a pressure episode: sessions whose tree we
	// recorded before the storm peaked must serve the same bytes now, even
	// though some were evicted to disk and lazily restored.
	checked := 0
	for id, want := range pressureTrees {
		if checked == 3 {
			break
		}
		checked++
		sub, err := cl.Subtree(ctx, id, 0, len(patho))
		if err != nil {
			shedErr := checkShed(err)
			if shedErr != nil {
				t.Errorf("post-storm subtree of %s: %v", id, shedErr)
			}
			continue
		}
		if got, _ := sub["outline"].(string); got != want {
			t.Errorf("session %s tree changed across the pressure episode:\n got: %s\nwant: %s", id, got, want)
		}
	}

	// Deterministic shed probe: drop the hard watermark below the live
	// fleet, so the very next create must shed — fast, with full hints.
	probeCfg := cfg
	probeCfg.MemorySoftBytes, probeCfg.MemoryHardBytes = 0, 1
	if _, err := d.Reload(probeCfg); err != nil {
		t.Fatalf("probe reload: %v", err)
	}
	probeStart := time.Now()
	resp, err := http.Post(dataURL(d, "/sessions"), "application/json",
		strings.NewReader(`{"language":"expr","text":"1+2"}`))
	if err != nil {
		t.Fatalf("probe create: %v", err)
	}
	var sj shedJSON
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe create above hard watermark: status %d, body %s", resp.StatusCode, body)
	}
	if el := time.Since(probeStart); el > time.Second {
		t.Errorf("shed took %v; load shedding must fail fast", el)
	}
	if err := json.Unmarshal(body, &sj); err != nil || sj.Code != shedCodeMemory || sj.RetryAfterMS <= 0 {
		t.Errorf("probe shed body = %s (err %v), want code %q with a retry hint", body, err, shedCodeMemory)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("probe shed response missing Retry-After header")
	}
	if _, err := d.Reload(cfg); err != nil {
		t.Fatalf("restore reload: %v", err)
	}

	close(samplerStop)
	<-samplerDone
	if p := peak.Load(); p > hardBytes {
		t.Errorf("governor accounting peaked at %d bytes, above the hard watermark %d", p, hardBytes)
	}

	// Drain: delete what's left (parked sessions restore first; that's
	// fine), shut down, and verify the storm leaked no goroutines.
	for _, id := range pressureIDs {
		cl.Close(ctx, id)
	}
	// Idle keep-alive conns (especially spares the Transport dialed but
	// never used: StateNew server-side) stall graceful Shutdown, so drop
	// them first.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPressureEvictRestoreByteIdentical: a session parked by the janitor's
// pressure sweep (not the idle TTL) restores byte-identically — same
// committed tree, same diagnostics — on its next touch.
func TestPressureEvictRestoreByteIdentical(t *testing.T) {
	d := testDaemon(t, Config{
		Bundled: []string{"*"},
		Persist: Persist{Dir: t.TempDir()},
		// A 1 KiB soft watermark puts any live session over it, so the
		// first pressure sweep after the idle grace parks the session.
		MemorySoftBytes: 1 << 10,
		DefaultTenant:   Tenant{Budget: incremental.Budget{MaxAlternatives: 2}},
	})

	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr-ambiguous", Text: pathologicalSrc(t)}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}
	// The edit follows the retry contract, as the reads below do: the
	// janitor may park the new session before the edit reaches its shard,
	// and that shed is retryable. parse_pending (the batch applied, the
	// reparse failed) is never retried and fails the test.
	cl := client.New("http://"+d.Addr().String(), client.Options{MaxRetries: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := cl.Edits(ctx, created.ID, []client.Edit{{Offset: 0, Insert: "7*"}})
	if err != nil {
		t.Fatalf("edit: %v", err)
	}
	var wantSub subtreeJSON
	if err := json.Unmarshal([]byte(shedTolerantGET(t,
		dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=0&length=%d", created.ID, out.TextLen)))), &wantSub); err != nil {
		t.Fatalf("subtree decode: %v", err)
	}
	want := wantSub.Outline
	wantDiags := shedTolerantGET(t, dataURL(d, "/sessions/"+created.ID+"/diagnostics"))

	if v := pollMetric(t, d, "iglrd_pressure_evictions_total", 1, 5*time.Second); v < 1 {
		t.Fatalf("pressure_evictions_total = %d, want >= 1 (global=%d)", v, d.gov.Global())
	}

	// The next touch restores from disk. Everything must match, byte for
	// byte. With a 1 KiB soft watermark the janitor may re-park the
	// session between its restore and the read task running — that answer
	// is the designed retryable 503, so read like a real client and retry.
	var gotSub subtreeJSON
	if err := json.Unmarshal([]byte(shedTolerantGET(t,
		dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=0&length=%d", created.ID, out.TextLen)))), &gotSub); err != nil {
		t.Fatalf("subtree decode: %v", err)
	}
	if gotSub.Outline != want {
		t.Fatalf("pressure evict/restore diverged:\nlive:\n%s\nrestored:\n%s", want, gotSub.Outline)
	}
	if got := shedTolerantGET(t, dataURL(d, "/sessions/"+created.ID+"/diagnostics")); got != wantDiags {
		t.Fatalf("diagnostics diverged across pressure episode:\nlive: %s\nrestored: %s", wantDiags, got)
	}
	m := scrapeMetrics(t, d)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v < 1 {
		t.Fatalf("restored_total = %d, want >= 1", v)
	}
}

// shedTolerantGET fetches url like a well-behaved client: 429/503 sheds
// (e.g. the janitor re-parking a just-restored session before its read
// task ran) are retried until the deadline; any other non-200 fails.
func shedTolerantGET(t *testing.T, url string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return string(b)
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: still shedding at deadline: status %d, body %s", url, resp.StatusCode, b)
			}
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("GET %s: status %d, body %s", url, resp.StatusCode, b)
		}
	}
}

// TestQueueDeadlineDrop: work whose deadline expires while queued behind a
// wedged shard is dropped — shed with code "deadline", counted, and never
// parsed — and a full queue sheds immediately with 429 queue_full.
func TestQueueDeadlineDrop(t *testing.T) {
	const depth = 8
	d := testDaemon(t, Config{
		Bundled:         []string{"expr"},
		Shards:          1,
		QueueDepth:      depth,
		DefaultDeadline: Duration(150 * time.Millisecond),
	})
	created := createExpr(t, d, "1+2")
	parsesBefore := metricValue(t, scrapeMetrics(t, d), "iglrd_parses_total")

	// Wedge the only shard: every further data-plane task queues behind
	// this until release.
	release := make(chan struct{})
	wedged := make(chan struct{})
	go d.pool.run(context.Background(), 0, func() { close(wedged); <-release })
	<-wedged
	defer close(release)

	// Phase 1: one edit, queued, never served — its deadline expires first.
	resp, err := http.Post(dataURL(d, "/sessions/"+created.ID+"/edits"), "application/json",
		strings.NewReader(`{"edits":[{"offset":3,"insert":"*4"}]}`))
	if err != nil {
		t.Fatalf("edit: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-in-queue edit: status %d, body %s", resp.StatusCode, body)
	}
	var sj shedJSON
	if err := json.Unmarshal(body, &sj); err != nil || sj.Code != shedCodeDeadline || sj.RetryAfterMS <= 0 {
		t.Fatalf("expired-in-queue body = %s, want code %q with a retry hint", body, shedCodeDeadline)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("expired-in-queue response missing Retry-After")
	}
	m := scrapeMetrics(t, d)
	if v := metricValue(t, m, "iglrd_queue_expired_total"); v != 1 {
		t.Fatalf("queue_expired_total = %d, want 1", v)
	}
	if v := metricValue(t, m, "iglrd_parses_total"); v != parsesBefore {
		t.Fatalf("expired work was parsed anyway: parses %d -> %d", parsesBefore, v)
	}

	// Phase 2: fill the queue, then one more — shed with 429 queue_full.
	var fillers sync.WaitGroup
	for i := 0; i < depth; i++ {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			resp, err := http.Get(dataURL(d, "/sessions/"+created.ID))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Wait for all depth fillers to be sitting in the queue.
	deadline := time.Now().Add(2 * time.Second)
	for len(d.pool.tasks[0]) < depth && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := len(d.pool.tasks[0]); n < depth {
		t.Fatalf("queue filled to %d of %d", n, depth)
	}
	resp, err = http.Get(dataURL(d, "/sessions/"+created.ID))
	if err != nil {
		t.Fatalf("overflow request: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow past a full queue: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sj); err != nil || sj.Code != shedCodeQueueFull || sj.RetryAfterMS <= 0 {
		t.Fatalf("queue-full body = %s, want code %q with a retry hint", body, shedCodeQueueFull)
	}
	if v := metricValue(t, scrapeMetrics(t, d), "iglrd_shed_queue_full_total"); v < 1 {
		t.Fatalf("shed_queue_full_total = %d, want >= 1", v)
	}
	fillers.Wait()
}

// TestWatchdogCancelsStalledShard: a parse wedged mid-round (injected 3s
// stall, stall_timeout 40ms) is cancelled by the watchdog well before the
// stall would have ended; the poisoned session is closed, the caller gets
// a shed 503 "stalled", and the shard keeps serving.
func TestWatchdogCancelsStalledShard(t *testing.T) {
	d := testDaemon(t, Config{
		Bundled:      []string{"expr", "expr-ambiguous"},
		Shards:       1,
		StallTimeout: Duration(40 * time.Millisecond),
	})

	faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
		Point: faultinject.ParseRound, Do: faultinject.ActDelay,
		Sleep: 3 * time.Second, After: 1,
	}))
	defer faultinject.Deactivate()

	start := time.Now()
	resp, err := http.Post(dataURL(d, "/sessions"), "application/json",
		strings.NewReader(fmt.Sprintf(`{"language":"expr-ambiguous","text":%q}`, pathologicalSrc(t))))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled create: status %d, body %s", resp.StatusCode, body)
	}
	var sj shedJSON
	if err := json.Unmarshal(body, &sj); err != nil || sj.Code != shedCodeStalled {
		t.Fatalf("stalled body = %s, want code %q", body, shedCodeStalled)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled parse answered after %v; the watchdog did not cancel it", elapsed)
	}
	m := scrapeMetrics(t, d)
	if v := metricValue(t, m, "iglrd_watchdog_cancels_total"); v != 1 {
		t.Fatalf("watchdog_cancels_total = %d, want 1", v)
	}
	if v := metricValue(t, m, "iglrd_sessions_open"); v != 0 {
		t.Fatalf("poisoned session still open: sessions_open = %d", v)
	}

	// The shard survives: with the stall plan cleared, parsing works.
	faultinject.Deactivate()
	created := createExpr(t, d, "1+2*3")
	if !created.Outcome.Clean {
		t.Fatalf("post-stall create not clean: %+v", created.Outcome)
	}
}

// TestQuotaRetryAfter: per-tenant session-quota refusals are proper sheds —
// 429 with code "quota", a Retry-After header, and the structured body.
func TestQuotaRetryAfter(t *testing.T) {
	d := testDaemon(t, Config{
		Bundled:       []string{"expr"},
		DefaultTenant: Tenant{MaxSessions: 1},
	})
	createExpr(t, d, "1+2")

	resp, err := http.Post(dataURL(d, "/sessions"), "application/json",
		strings.NewReader(`{"language":"expr","text":"3+4"}`))
	if err != nil {
		t.Fatalf("second create: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: status %d, body %s", resp.StatusCode, body)
	}
	var sj shedJSON
	if err := json.Unmarshal(body, &sj); err != nil || sj.Code != shedCodeQuota || sj.RetryAfterMS <= 0 {
		t.Fatalf("quota body = %s, want code %q with a retry hint", body, shedCodeQuota)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota response missing Retry-After")
	}
}

// TestHealthzDegradedAndOverloaded: /healthz tracks the governor — ready
// below the soft watermark, degraded (still 200, still ok) under pressure,
// 503 "overloaded" at the hard watermark; and an overloaded daemon refuses
// new sessions with a memory shed.
func TestHealthzDegradedAndOverloaded(t *testing.T) {
	base := Config{Bundled: []string{"expr"}}
	d := testDaemon(t, base)

	health := func() (int, map[string]any) {
		resp, err := http.Get(adminURL(d, "/healthz"))
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if st, body := health(); st != http.StatusOK || body["state"] != "ready" || body["ok"] != true {
		t.Fatalf("idle healthz = %d %v, want 200 ready", st, body)
	}

	createExpr(t, d, "1+2*3") // a few KB on the governor's books

	pressured := base
	pressured.MemorySoftBytes = 1
	if _, err := d.Reload(pressured); err != nil {
		t.Fatalf("reload soft=1: %v", err)
	}
	if st, body := health(); st != http.StatusOK || body["state"] != "degraded" || body["ok"] != true {
		t.Fatalf("pressure healthz = %d %v, want 200 degraded", st, body)
	}

	overloaded := base
	overloaded.MemorySoftBytes, overloaded.MemoryHardBytes = 1, 2
	if _, err := d.Reload(overloaded); err != nil {
		t.Fatalf("reload hard=2: %v", err)
	}
	st, body := health()
	if st != http.StatusServiceUnavailable || body["state"] != "overloaded" || body["ok"] != false {
		t.Fatalf("overloaded healthz = %d %v, want 503 overloaded", st, body)
	}
	if mb, _ := body["memory_bytes"].(float64); mb <= 0 {
		t.Fatalf("healthz memory_bytes = %v, want > 0", body["memory_bytes"])
	}

	// Above the hard watermark, session creation sheds.
	resp, err := http.Post(dataURL(d, "/sessions"), "application/json",
		strings.NewReader(`{"language":"expr","text":"3+4"}`))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sj shedJSON
	if resp.StatusCode != http.StatusServiceUnavailable ||
		json.Unmarshal(raw, &sj) != nil || sj.Code != shedCodeMemory {
		t.Fatalf("overloaded create = %d %s, want 503 %q", resp.StatusCode, raw, shedCodeMemory)
	}

	if _, err := d.Reload(base); err != nil {
		t.Fatalf("reload back: %v", err)
	}
	if st, body := health(); st != http.StatusOK || body["state"] != "ready" {
		t.Fatalf("recovered healthz = %d %v, want 200 ready", st, body)
	}
}
