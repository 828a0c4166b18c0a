package daemon

import (
	"bytes"
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
	"iglr/internal/sesscodec"

	"context"
	"os"
	"path/filepath"
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
	// The edit follows the retry contract, as the reads below do. The
	// janitor may park the new session before the edit's task runs; the
	// task then restores it first.
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

	// The next touch restores from disk, in the read's own task.
	// Everything must match, byte for byte.
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

// TestPressureEvictRestoreDiverged: a session under the pressure tier's
// ambiguity budget, over the ambiguous expression grammar, is edited, parked
// by the pressure sweep and restored on its next touch with its text
// intact and the cold parse's tree. Its incremental tree after the edit is
// not that cold parse (one reading of "bx*f-b" where a cold parse keeps
// two; see ROADMAP), so the restore counts as diverged — and the session
// is served, never a 404. An in-process session that takes the same steps
// tells whether the live tree diverged.
func TestPressureEvictRestoreDiverged(t *testing.T) {
	budget := incremental.Budget{MaxAlternatives: 2}
	d := testDaemon(t, Config{
		Bundled:         []string{"expr-ambiguous"},
		Persist:         Persist{Dir: t.TempDir()},
		MemorySoftBytes: 1 << 10,
		DefaultTenant:   Tenant{Budget: budget},
		PressureBudget:  budget,
	})
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr-ambiguous", Text: "b*f-b"}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}
	cl := client.New("http://"+d.Addr().String(), client.Options{MaxRetries: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Edits(ctx, created.ID, []client.Edit{{Offset: 1, Insert: "x"}}); err != nil {
		t.Fatalf("edit: %v", err)
	}
	if v := pollMetric(t, d, "iglrd_pressure_evictions_total", 1, 5*time.Second); v < 1 {
		t.Fatalf("pressure_evictions_total = %d, want >= 1", v)
	}

	lang, _ := incremental.BundledLanguage("expr-ambiguous")
	live := incremental.NewSession(lang, "b*f-b", incremental.WithBudget(budget))
	live.Do(nil)
	live.Edit(1, 0, "x")
	live.Do(nil)
	cold := incremental.NewSession(lang, "bx*f-b", incremental.WithBudget(budget))
	if out := cold.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	var got subtreeJSON
	if err := json.Unmarshal([]byte(shedTolerantGET(t,
		dataURL(d, "/sessions/"+created.ID+"/subtree?offset=0&length=6"))), &got); err != nil {
		t.Fatalf("subtree decode: %v", err)
	}
	if want := incremental.FormatDag(lang, cold.Subtree(0, 6)); got.Outline != want {
		t.Fatalf("restored tree is not the cold parse:\n%s\nwant:\n%s", got.Outline, want)
	}
	var diverged int64
	if incremental.FormatDag(lang, live.Tree()) != incremental.FormatDag(lang, cold.Tree()) {
		diverged = 1
	}
	// The restore left the session unsnapshotted, so its next park writes
	// the tree it serves, and the next restore reproduces that exactly.
	if v := pollMetric(t, d, "iglrd_pressure_evictions_total", 2, 5*time.Second); v < 2 {
		t.Fatalf("pressure_evictions_total = %d, want >= 2", v)
	}
	var again subtreeJSON
	if err := json.Unmarshal([]byte(shedTolerantGET(t,
		dataURL(d, "/sessions/"+created.ID+"/subtree?offset=0&length=6"))), &again); err != nil {
		t.Fatalf("subtree decode: %v", err)
	}
	if again.Outline != got.Outline {
		t.Fatalf("second restore changed the tree:\n%s\nfirst:\n%s", again.Outline, got.Outline)
	}
	m := scrapeMetrics(t, d)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v < 2 {
		t.Fatalf("restored_total = %d, want >= 2", v)
	}
	if v := metricValue(t, m, "iglrd_session_restores_diverged_total"); v != diverged {
		t.Fatalf("restores_diverged_total = %d, want %d", v, diverged)
	}
	if v := metricValue(t, m, "iglrd_session_restore_misses_total"); v != 0 {
		t.Fatalf("restore_misses_total = %d, want 0", v)
	}
	out, err := cl.Edits(ctx, created.ID, []client.Edit{{Offset: 6, Insert: "+c"}})
	if err != nil || out.TextLen != 8 {
		t.Fatalf("edit after the restore: %+v, %v", out, err)
	}
}

// TestHardWatermarkRelief: an edit whose growth the hard watermark
// refuses parks the oldest idle session on its shard, not the grown one,
// and answers 200; the parked session restores on its next touch.
func TestHardWatermarkRelief(t *testing.T) {
	cfg := persistConfig(t)
	cfg.Shards = 1 // relief parks the grown session's shard neighbours
	d := testDaemon(t, cfg)
	oldText := "1" + strings.Repeat("+1", 2000)
	oldest := createExpr(t, d, oldText)
	want := outline(t, d, oldest.ID, len(oldText))
	middle := createExpr(t, d, "1+2")
	newest := createExpr(t, d, "1+2")

	capped := cfg
	capped.MemoryHardBytes = d.gov.Global() + 1
	if _, err := d.Reload(capped); err != nil {
		t.Fatalf("reload with a hard watermark: %v", err)
	}
	out := editOnce(t, d, newest.ID, editJSON{Offset: 3, Insert: strings.Repeat("*3", 50)})
	if out.TextLen != 103 || !out.Clean {
		t.Fatalf("edit outcome %+v", out)
	}
	m := scrapeMetrics(t, d)
	if v := metricValue(t, m, "iglrd_pressure_evictions_total"); v != 1 {
		t.Fatalf("pressure_evictions_total = %d, want 1", v)
	}
	for id, wantLive := range map[string]bool{oldest.ID: false, middle.ID: true, newest.ID: true} {
		if _, live := d.sessions.get(id); live != wantLive {
			t.Fatalf("session %s live = %v, want %v", id, live, wantLive)
		}
	}

	// The parked session's restore needs more than the freed headroom:
	// lift the watermark, then touch it.
	if _, err := d.Reload(cfg); err != nil {
		t.Fatalf("reload without the watermark: %v", err)
	}
	if got := outline(t, d, oldest.ID, len(oldText)); got != want {
		t.Fatalf("relief park/restore diverged:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	if v := metricValue(t, scrapeMetrics(t, d), "iglrd_sessions_restored_total"); v != 1 {
		t.Fatalf("restored_total = %d, want 1", v)
	}
}

// shedTolerantGET fetches url like a well-behaved client: 429/503 sheds
// are retried until the deadline; any other non-200 fails.
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
	fillers := fillQueue(t, d, dataURL(d, "/sessions/"+created.ID), depth)
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

// fillQueue sends depth GETs of url, which queue on shard 0 behind a task
// that wedges it, and returns once they all sit in the queue. Wait on the
// result for their answers.
func fillQueue(t *testing.T, d *Daemon, url string, depth int) *sync.WaitGroup {
	t.Helper()
	var fillers sync.WaitGroup
	for i := 0; i < depth; i++ {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			if resp, err := http.Get(url); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(d.pool.tasks[0]) < depth && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := len(d.pool.tasks[0]); n < depth {
		t.Fatalf("queue filled to %d of %d", n, depth)
	}
	return &fillers
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

// TestDeleteReleasesMemory: DELETE returns the session's governor charge,
// so create/delete churn alone never walks /healthz toward "overloaded".
func TestDeleteReleasesMemory(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})
	memory := func() float64 {
		t.Helper()
		var body map[string]any
		if s := doJSON(t, "GET", adminURL(d, "/healthz"), nil, &body); s != http.StatusOK {
			t.Fatalf("healthz: status %d", s)
		}
		mb, _ := body["memory_bytes"].(float64)
		return mb
	}
	created := createExpr(t, d, "1+2*3")
	if mb := memory(); mb <= 0 {
		t.Fatalf("memory_bytes with one session = %v, want > 0", mb)
	}
	if s := doJSON(t, "DELETE", dataURL(d, "/sessions/"+created.ID), nil, nil); s != http.StatusNoContent {
		t.Fatalf("delete: status %d", s)
	}
	if mb := memory(); mb != 0 {
		t.Fatalf("memory_bytes after DELETE = %v, want 0", mb)
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

// TestOneShardTaskPerRequest: every per-session request, a restore
// included, is exactly one task on its session's shard — one sample of
// the queue-wait histogram each. An edit batch is validated, journaled,
// applied and reparsed in that one task.
func TestOneShardTaskPerRequest(t *testing.T) {
	cfg := persistConfig(t) // no TTL and no watermarks: the janitor submits nothing
	tasks := func(d *Daemon) int64 {
		return metricValue(t, scrapeMetrics(t, d), "iglrd_queue_wait_seconds_count")
	}
	oneTask := func(d *Daemon, what string, req func()) {
		t.Helper()
		before := tasks(d)
		req()
		if got := tasks(d) - before; got != 1 {
			t.Errorf("%s ran %d shard tasks, want 1", what, got)
		}
	}

	d1 := crashableDaemon(t, cfg)
	var created sessionJSON
	oneTask(d1, "create", func() { created = createExpr(t, d1, "1+2*3") })
	var out outcomeJSON
	oneTask(d1, "edit batch", func() {
		out = editOnce(t, d1, created.ID, editJSON{Offset: 0, Insert: "7+"}, editJSON{Offset: 7, Insert: "-1"})
	})
	if !out.Clean || out.TextLen != len("7+1+2*3-1") {
		t.Fatalf("edit outcome %+v", out)
	}
	oneTask(d1, "get", func() {
		if s := doJSON(t, "GET", dataURL(d1, "/sessions/"+created.ID), nil, nil); s != http.StatusOK {
			t.Fatalf("get: status %d", s)
		}
	})
	oneTask(d1, "diagnostics", func() {
		if s := doJSON(t, "GET", dataURL(d1, "/sessions/"+created.ID+"/diagnostics"), nil, nil); s != http.StatusOK {
			t.Fatalf("diagnostics: status %d", s)
		}
	})
	var want string
	oneTask(d1, "subtree", func() { want = outline(t, d1, created.ID, out.TextLen) })
	crashDaemon(t, d1)

	d2 := testDaemon(t, cfg)
	oneTask(d2, "subtree that restores", func() {
		if got := outline(t, d2, created.ID, out.TextLen); got != want {
			t.Fatalf("restored tree diverged:\nlive:\n%s\nrestored:\n%s", want, got)
		}
	})
	oneTask(d2, "edit batch after the restore", func() {
		editOnce(t, d2, created.ID, editJSON{Offset: 0, Remove: 1, Insert: "8"})
	})
	oneTask(d2, "delete", func() {
		if s := doJSON(t, "DELETE", dataURL(d2, "/sessions/"+created.ID), nil, nil); s != http.StatusNoContent {
			t.Fatalf("delete: status %d", s)
		}
	})
	if v := metricValue(t, scrapeMetrics(t, d2), "iglrd_sessions_restored_total"); v != 1 {
		t.Fatalf("restored_total = %d, want 1", v)
	}
}

// TestNoShedAfterActing: a shed means the request changed nothing. An edit
// batch whose journal fsync outlasts the request deadline has been
// journaled and applied by the time the deadline passes, so it answers
// 200 with the parse's cancellation as data and the batch in the text; a
// request shed before its task ran (its deadline expired in the queue, or
// the queue was full) leaves the text and the journal as they were.
func TestNoShedAfterActing(t *testing.T) {
	const deadline = 100 * time.Millisecond
	cfg := persistConfig(t)
	cfg.Shards, cfg.QueueDepth = 1, 2
	cfg.DefaultDeadline = Duration(deadline)
	d := testDaemon(t, cfg)
	created := createExpr(t, d, "1+2*3")
	walPath := filepath.Join(cfg.Persist.Dir, created.ID+".wal")
	textLen := func() int {
		t.Helper()
		var got struct {
			TextLen int `json:"text_len"`
		}
		if s := doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID), nil, &got); s != http.StatusOK {
			t.Fatalf("get: status %d", s)
		}
		return got.TextLen
	}
	journal := func() []byte {
		t.Helper()
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
		Point: faultinject.PersistSync, Do: faultinject.ActDelay,
		Sleep: 3 * deadline, Every: 1,
	}))
	var out outcomeJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: 5, Insert: "+4"}}}, &out)
	faultinject.Deactivate()
	if status != http.StatusOK {
		t.Fatalf("edit whose fsync outlasted its deadline: status %d, want 200", status)
	}
	if out.TextLen != len("1+2*3+4") || out.Error == "" {
		t.Fatalf("outcome %+v, want the batch in text_len and the cancelled parse's error", out)
	}
	if n := textLen(); n != len("1+2*3+4") {
		t.Fatalf("text_len after the edit = %d, want %d", n, len("1+2*3+4"))
	}
	recs, torn := sesscodec.DecodeJournal(journal())
	if torn || len(recs) != 1 || len(recs[0].Edits) != 1 || recs[0].Edits[0].Insert != "+4" {
		t.Fatalf("journal holds %+v (torn %v), want the one batch", recs, torn)
	}
	wal := journal()

	// Wedge the only shard: an edit queued behind it expires unserved.
	release := make(chan struct{})
	wedged := make(chan struct{})
	go d.pool.run(context.Background(), 0, func() { close(wedged); <-release })
	<-wedged
	resp, err := http.Post(dataURL(d, "/sessions/"+created.ID+"/edits"), "application/json",
		strings.NewReader(`{"edits":[{"offset":0,"insert":"9*"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sj shedJSON
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &sj) != nil || sj.Code != shedCodeDeadline {
		t.Fatalf("edit expired in the queue: status %d, body %s", resp.StatusCode, body)
	}
	// Fill the queue, then one more edit: shed at once with queue_full.
	fillers := fillQueue(t, d, dataURL(d, "/sessions/"+created.ID), cfg.QueueDepth)
	resp, err = http.Post(dataURL(d, "/sessions/"+created.ID+"/edits"), "application/json",
		strings.NewReader(`{"edits":[{"offset":0,"insert":"9*"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(body, &sj) != nil || sj.Code != shedCodeQueueFull {
		t.Fatalf("edit past a full queue: status %d, body %s", resp.StatusCode, body)
	}
	close(release)
	fillers.Wait()

	if n := textLen(); n != len("1+2*3+4") {
		t.Fatalf("text_len after two shed edits = %d, want %d", n, len("1+2*3+4"))
	}
	if got := journal(); !bytes.Equal(got, wal) {
		t.Fatalf("shed edits changed the journal: %d bytes, was %d", len(got), len(wal))
	}
	if v := metricValue(t, scrapeMetrics(t, d), "iglrd_journal_records_total"); v != 1 {
		t.Fatalf("journal_records_total = %d, want 1", v)
	}
}
