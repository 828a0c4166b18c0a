package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	incremental "iglr"
)

// testDaemon starts a daemon on ephemeral loopback ports and tears it down
// with the test.
func testDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.AdminListen == "" {
		cfg.AdminListen = "127.0.0.1:0"
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d.Logf = t.Logf
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		// Drop the shared transport's idle keep-alive conns first: a spare
		// conn the Transport dialed but never sent a request on is StateNew
		// server-side, and net/http's graceful Shutdown refuses to treat
		// such a conn as idle until it is 5s old — long enough to trip the
		// drain deadline below.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			buf := make([]byte, 1<<20)
			t.Errorf("Shutdown: %v\n%s", err, buf[:runtime.Stack(buf, true)])
		}
	})
	return d
}

func dataURL(d *Daemon, path string) string  { return "http://" + d.Addr().String() + path }
func adminURL(d *Daemon, path string) string { return "http://" + d.AdminAddr().String() + path }

// doJSON issues a request with a JSON body and decodes the JSON response,
// returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func scrapeMetrics(t *testing.T, d *Daemon) string {
	t.Helper()
	resp, err := http.Get(adminURL(d, "/metrics"))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// metricValue extracts the value of a plain (unlabelled) metric sample.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

func TestSessionRoundTrip(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})

	var created sessionJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2*3"}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d, want 201", status)
	}
	if created.ID == "" || !created.Outcome.Clean || created.Outcome.TextLen != 5 {
		t.Fatalf("create: bad outcome %+v", created)
	}

	// Edit "1+2*3" -> "1+(2*3)+4" and reparse.
	var out outcomeJSON
	status = doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{
			{Offset: 2, Remove: 0, Insert: "("},
			{Offset: 6, Remove: 0, Insert: ")+4"},
		}}, &out)
	if status != http.StatusOK || !out.Clean || out.TextLen != len("1+(2*3)+4") {
		t.Fatalf("edits: status %d, outcome %+v", status, out)
	}

	var diag struct {
		Diagnostics []diagnosticJSON `json:"diagnostics"`
	}
	status = doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID+"/diagnostics"), nil, &diag)
	if status != http.StatusOK || len(diag.Diagnostics) != 0 {
		t.Fatalf("diagnostics: status %d, %+v", status, diag)
	}

	// Subtree covering the parenthesized group.
	var sub subtreeJSON
	status = doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID+"/subtree?offset=2&length=5"), nil, &sub)
	if status != http.StatusOK {
		t.Fatalf("subtree: status %d", status)
	}
	if sub.Offset > 2 || sub.Offset+sub.Length < 7 || sub.Outline == "" {
		t.Fatalf("subtree: %+v does not cover [2,7)", sub)
	}

	status = doJSON(t, "DELETE", dataURL(d, "/sessions/"+created.ID), nil, nil)
	if status != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", status)
	}
	status = doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID), nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", status)
	}

	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_sessions_open"); got != 0 {
		t.Errorf("sessions_open = %d after delete, want 0", got)
	}
	if got := metricValue(t, text, "iglrd_sessions_opened_total"); got != 1 {
		t.Errorf("sessions_opened_total = %d, want 1", got)
	}
	if got := metricValue(t, text, "iglrd_edits_total"); got != 2 {
		t.Errorf("edits_total = %d, want 2", got)
	}
	if got := metricValue(t, text, "iglrd_parse_seconds_count"); got < 2 {
		t.Errorf("parse_seconds_count = %d, want >= 2", got)
	}
}

func TestTolerantSessionQuarantinesAndRepairs(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"c-subset"}})

	src := "int a; a = 1; int b;"
	var created sessionJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "c-subset", Text: src, Tolerant: true}, &created)
	if status != http.StatusCreated || !created.Outcome.Clean {
		t.Fatalf("create: status %d, outcome %+v", status, created.Outcome)
	}

	// Corrupt the assignment's "=" into "@": a syntax error a tolerant
	// session must quarantine, not fail.
	off := strings.Index(src, "=")
	var out outcomeJSON
	status = doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: off, Remove: 1, Insert: "@"}}}, &out)
	if status != http.StatusOK {
		t.Fatalf("hostile edit: status %d", status)
	}
	if out.Error != "" {
		t.Fatalf("tolerant session surfaced hard error: %q", out.Error)
	}
	if out.Clean || len(out.Diagnostics) == 0 {
		t.Fatalf("hostile edit: want quarantined diagnostics, got %+v", out)
	}

	// Repair and verify diagnostics clear. Fresh struct: omitempty fields
	// from the previous response must not linger.
	var repaired outcomeJSON
	status = doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: off, Remove: 1, Insert: "="}}}, &repaired)
	if status != http.StatusOK || !repaired.Clean || len(repaired.Diagnostics) != 0 {
		t.Fatalf("repair: status %d, outcome %+v", status, repaired)
	}

	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_isolated_parses_total"); got < 1 {
		t.Errorf("isolated_parses_total = %d, want >= 1", got)
	}
	if got := metricValue(t, text, "iglrd_diagnostics_total"); got < 1 {
		t.Errorf("diagnostics_total = %d, want >= 1", got)
	}
}

func TestUnknownLanguageAndBadEdits(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})

	var e errorJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "cobol", Text: "x"}, &e)
	if status != http.StatusBadRequest || !strings.Contains(e.Error, "cobol") {
		t.Fatalf("unknown language: status %d, %+v", status, e)
	}

	var created sessionJSON
	doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created)
	status = doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: 99, Remove: 5}}}, &e)
	if status != http.StatusBadRequest {
		t.Fatalf("bad edit: status %d, want 400", status)
	}

	status = doJSON(t, "POST", dataURL(d, "/sessions/nope/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: 0}}}, &e)
	if status != http.StatusNotFound {
		t.Fatalf("edits on unknown session: status %d, want 404", status)
	}
}

func TestSessionQuotas(t *testing.T) {
	d := testDaemon(t, Config{
		Bundled:     []string{"expr"},
		MaxSessions: 3,
		Tenants:     map[string]Tenant{"small": {MaxSessions: 1}},
	})

	var first sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1", Tenant: "small"}, &first); s != http.StatusCreated {
		t.Fatalf("first small session: status %d", s)
	}
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "2", Tenant: "small"}, nil); s != http.StatusTooManyRequests {
		t.Fatalf("second small session: status %d, want 429", s)
	}
	// Other tenants can still fill up to the global cap.
	for i := 0; i < 2; i++ {
		if s := doJSON(t, "POST", dataURL(d, "/sessions"),
			createSessionJSON{Language: "expr", Text: "3"}, nil); s != http.StatusCreated {
			t.Fatalf("default tenant session %d: status %d", i, s)
		}
	}
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "4"}, nil); s != http.StatusTooManyRequests {
		t.Fatalf("over global cap: status %d, want 429", s)
	}
	// Freeing the small tenant's session re-admits it.
	if s := doJSON(t, "DELETE", dataURL(d, "/sessions/"+first.ID), nil, nil); s != http.StatusNoContent {
		t.Fatalf("delete: status %d", s)
	}
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "5", Tenant: "small"}, nil); s != http.StatusCreated {
		t.Fatalf("small session after free: status %d", s)
	}

	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_sessions_denied_total"); got != 2 {
		t.Errorf("sessions_denied_total = %d, want 2", got)
	}
}

func TestTenantBudgetTrips(t *testing.T) {
	d := testDaemon(t, Config{
		Bundled: []string{"expr"},
		Tenants: map[string]Tenant{
			"tiny": {Budget: incremental.Budget{MaxGSSLinks: 4}},
		},
	})
	var created sessionJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2+3+4+5+6+7+8+9", Tenant: "tiny"}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if created.Outcome.Error == "" || !created.Outcome.BudgetTrip {
		t.Fatalf("tiny budget should trip, got %+v", created.Outcome)
	}
	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_budget_trips_total"); got != 1 {
		t.Errorf("budget_trips_total = %d, want 1", got)
	}
}

func TestBatchParse(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"c-subset"}})
	var resp batchResponseJSON
	status := doJSON(t, "POST", dataURL(d, "/parse"), batchRequestJSON{
		Language: "c-subset",
		Tolerant: true,
		Files: []batchFileJSON{
			{Name: "ok.c", Source: "int x; x = 1;"},
			{Name: "bad.c", Source: "int a; a @ 1; int b;"},
		},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if len(resp.Files) != 2 {
		t.Fatalf("batch: %d results, want 2", len(resp.Files))
	}
	byName := map[string]batchResultJSON{}
	for _, f := range resp.Files {
		byName[f.Name] = f
	}
	if !byName["ok.c"].OK {
		t.Errorf("ok.c failed: %+v", byName["ok.c"])
	}
	// Under a tolerant policy the bad file still lands, with diagnostics.
	if !byName["bad.c"].OK || len(byName["bad.c"].Diagnostics) == 0 {
		t.Errorf("bad.c: want tolerated with diagnostics, got %+v", byName["bad.c"])
	}

	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_batch_files_total"); got != 2 {
		t.Errorf("batch_files_total = %d, want 2", got)
	}
}

func TestAdminConfigReload(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})

	var got struct {
		Version int64  `json:"version"`
		Config  Config `json:"config"`
	}
	if s := doJSON(t, "GET", adminURL(d, "/config"), nil, &got); s != http.StatusOK {
		t.Fatalf("GET /config: status %d", s)
	}
	if got.Version != 1 || len(got.Config.Bundled) != 1 {
		t.Fatalf("GET /config: %+v", got)
	}

	// Successful reload: serve one more language.
	var rl struct {
		Version int64 `json:"version"`
	}
	if s := doJSON(t, "POST", adminURL(d, "/config"),
		Config{Bundled: []string{"expr", "c-subset"}}, &rl); s != http.StatusOK {
		t.Fatalf("POST /config: status %d", s)
	}
	if rl.Version != 2 {
		t.Fatalf("reload version = %d, want 2", rl.Version)
	}
	var langs struct {
		Languages []string `json:"languages"`
	}
	doJSON(t, "GET", dataURL(d, "/languages"), nil, &langs)
	if len(langs.Languages) != 2 {
		t.Fatalf("languages after reload: %v", langs.Languages)
	}

	// Rejected reload: unknown bundled language. Active config keeps serving.
	var e errorJSON
	if s := doJSON(t, "POST", adminURL(d, "/config"),
		Config{Bundled: []string{"fortran-77"}}, &e); s != http.StatusUnprocessableEntity {
		t.Fatalf("bad reload: status %d, want 422", s)
	}
	doJSON(t, "GET", adminURL(d, "/config"), nil, &got)
	if got.Version != 2 {
		t.Fatalf("version after rejected reload = %d, want 2", got.Version)
	}

	// A config naming a knob the config does not have is refused by name.
	if s := doJSON(t, "POST", adminURL(d, "/config"),
		json.RawMessage(`{"bundled":["expr"],"batch":{"lex_workers":4}}`), &e); s != http.StatusBadRequest ||
		!strings.Contains(e.Error, "lex_workers") {
		t.Fatalf("unknown-field config: status %d, %+v; want 400 naming lex_workers", s, e)
	}
	doJSON(t, "GET", adminURL(d, "/config"), nil, &got)
	if got.Version != 2 {
		t.Fatalf("version after refused config = %d, want 2", got.Version)
	}
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "c-subset", Text: "int x ;"}, nil); s != http.StatusCreated {
		t.Fatalf("data plane after rejected reload: status %d", s)
	}

	text := scrapeMetrics(t, d)
	if metricValue(t, text, "iglrd_config_version") != 2 ||
		metricValue(t, text, "iglrd_config_reloads_total") != 1 ||
		metricValue(t, text, "iglrd_config_reload_errors_total") != 1 {
		t.Errorf("reload metrics wrong:\n%s", text)
	}
}

func TestReloadFromConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "iglrd.json")
	write := func(cfg Config) {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(Config{Bundled: []string{"expr"}})

	d := testDaemon(t, Config{Bundled: []string{"expr"}})
	d.ConfigPath = path

	write(Config{Bundled: []string{"expr", "java-subset"}})
	var rl struct {
		Version int64 `json:"version"`
	}
	if s := doJSON(t, "POST", adminURL(d, "/reload"), nil, &rl); s != http.StatusOK {
		t.Fatalf("POST /reload: status %d", s)
	}
	var langs struct {
		Languages []string `json:"languages"`
	}
	doJSON(t, "GET", dataURL(d, "/languages"), nil, &langs)
	if len(langs.Languages) != 2 || langs.Languages[1] != "java-subset" {
		t.Fatalf("languages after file reload: %v", langs.Languages)
	}

	// A config file that fails to build is rejected, daemon stays up.
	write(Config{Bundled: []string{"no-such-language"}})
	if s := doJSON(t, "POST", adminURL(d, "/reload"), nil, nil); s != http.StatusUnprocessableEntity {
		t.Fatalf("bad file reload: status %d, want 422", s)
	}

	// A file naming a knob the config does not have is refused by name,
	// and the active version does not advance.
	if err := os.WriteFile(path, []byte(`{"bundled":["expr"],"batch":{"parse_workers":4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var e errorJSON
	if s := doJSON(t, "POST", adminURL(d, "/reload"), nil, &e); s != http.StatusUnprocessableEntity ||
		!strings.Contains(e.Error, "parse_workers") {
		t.Fatalf("unknown-field file reload: status %d, %+v; want 422 naming parse_workers", s, e)
	}
	var got struct {
		Version int64 `json:"version"`
	}
	doJSON(t, "GET", adminURL(d, "/config"), nil, &got)
	if got.Version != rl.Version {
		t.Fatalf("version after refused reload = %d, want %d", got.Version, rl.Version)
	}
	var hz struct {
		OK bool `json:"ok"`
	}
	if s := doJSON(t, "GET", adminURL(d, "/healthz"), nil, &hz); s != http.StatusOK || !hz.OK {
		t.Fatalf("healthz after bad reload: status %d, %+v", s, hz)
	}
}

func TestLanguageDirArtifacts(t *testing.T) {
	dir := t.TempDir()
	lang := incremental.ExprLanguage()
	if err := lang.SaveCompiledFile(filepath.Join(dir, "expr"+incremental.CompiledExt)); err != nil {
		t.Fatal(err)
	}
	d := testDaemon(t, Config{LanguageDirs: []string{dir}})
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("session on artifact language: status %d", s)
	}
	if !created.Outcome.Clean {
		t.Fatalf("outcome: %+v", created.Outcome)
	}
}

func TestDuplicateLanguageRejected(t *testing.T) {
	dir := t.TempDir()
	lang := incremental.ExprLanguage()
	if err := lang.SaveCompiledFile(filepath.Join(dir, "expr"+incremental.CompiledExt)); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Bundled: []string{"expr"}, LanguageDirs: []string{dir}})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate language: err = %v, want 'configured twice'", err)
	}
}

func TestIdleSessionEviction(t *testing.T) {
	d := testDaemon(t, Config{
		Bundled:    []string{"expr"},
		SessionTTL: Duration(100 * time.Millisecond),
	})
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID), nil, nil); s == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted after 5s with a 100ms TTL")
		}
		// Note: polling GET touches lastUsed, so back off past the TTL.
		time.Sleep(300 * time.Millisecond)
	}

	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_sessions_evicted_total"); got != 1 {
		t.Errorf("sessions_evicted_total = %d, want 1", got)
	}
	if got := metricValue(t, text, "iglrd_sessions_open"); got != 0 {
		t.Errorf("sessions_open = %d, want 0", got)
	}
}

func TestDurationJSON(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"session_ttl":"90s"}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if time.Duration(cfg.SessionTTL) != 90*time.Second {
		t.Fatalf("session_ttl = %v", time.Duration(cfg.SessionTTL))
	}
	if err := json.Unmarshal([]byte(`{"session_ttl":1000000}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if time.Duration(cfg.SessionTTL) != time.Millisecond {
		t.Fatalf("session_ttl = %v", time.Duration(cfg.SessionTTL))
	}
	data, err := json.Marshal(Config{SessionTTL: Duration(5 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"session_ttl":"5m0s"`) {
		t.Fatalf("marshal: %s", data)
	}
	if err := json.Unmarshal([]byte(`{"session_ttl":"fast"}`), &cfg); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// TestOverflowEditRejected: an edit whose Offset+Remove wraps negative
// must be rejected with a 400, not slip past validation into a panic that
// takes the shard goroutine (and with it the daemon) down.
func TestOverflowEditRejected(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}
	for _, e := range []editJSON{
		{Offset: 1, Remove: math.MaxInt - 1},
		{Offset: math.MaxInt - 1, Remove: 2},
		{Offset: math.MaxInt, Remove: math.MaxInt},
	} {
		if s := doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
			editsRequestJSON{Edits: []editJSON{e}}, nil); s != http.StatusBadRequest {
			t.Fatalf("overflow edit %+v: status %d, want 400", e, s)
		}
	}
	// The daemon survived and the document is untouched.
	var out outcomeJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: 3, Insert: "*4"}}}, &out); s != http.StatusOK {
		t.Fatalf("edit after overflow attempts: status %d", s)
	}
	if !out.Clean || out.TextLen != len("1+2*4") {
		t.Fatalf("document diverged: %+v", out)
	}
}

// TestEditBatchAtomicOnInvalid: when any edit in a batch fails validation
// the whole batch must be a no-op — a 400 implies no mutation, so the
// client's view of the document never silently diverges.
func TestEditBatchAtomicOnInvalid(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}
	// First edit valid, second out of range: neither may apply.
	if s := doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{
			{Offset: 0, Insert: "("},
			{Offset: 99, Remove: 5},
		}}, nil); s != http.StatusBadRequest {
		t.Fatalf("mixed batch: status %d, want 400", s)
	}
	var info struct {
		TextLen int `json:"text_len"`
	}
	if s := doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID), nil, &info); s != http.StatusOK {
		t.Fatalf("get: status %d", s)
	}
	if info.TextLen != len("1+2") {
		t.Fatalf("text_len = %d after rejected batch, want %d", info.TextLen, len("1+2"))
	}
	// A clean parse of "1+2*4" proves the stray "(" never landed.
	var out outcomeJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: 3, Insert: "*4"}}}, &out); s != http.StatusOK || !out.Clean {
		t.Fatalf("follow-up edit: status %d, outcome %+v", s, out)
	}
}

// TestShardPanicContained: a panic inside a shard task must fail that one
// request — the shard goroutine survives, the poisoned session is closed,
// and the daemon keeps serving.
func TestShardPanicContained(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}
	sess, ok := d.sessions.get(created.ID)
	if !ok {
		t.Fatal("session not registered")
	}
	err := d.runSession(context.Background(), sess, func() { panic("poisoned parse state") })
	if !errors.Is(err, errShardPanic) {
		t.Fatalf("runSession after panic: err = %v, want errShardPanic", err)
	}
	// The poisoned session is gone; the daemon is not.
	if s := doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID), nil, nil); s != http.StatusNotFound {
		t.Fatalf("poisoned session still served: status %d", s)
	}
	var next sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "3+4"}, &next); s != http.StatusCreated || !next.Outcome.Clean {
		t.Fatalf("daemon did not survive the panic: status %d", s)
	}
	text := scrapeMetrics(t, d)
	if got := metricValue(t, text, "iglrd_recovered_panics_total"); got != 1 {
		t.Errorf("recovered_panics_total = %d, want 1", got)
	}
	if got := metricValue(t, text, "iglrd_sessions_open"); got != 1 {
		t.Errorf("sessions_open = %d, want 1", got)
	}
}

func TestShardPoolPanicAndCloseSemantics(t *testing.T) {
	p := newShardPool(1, 16)
	if err := p.run(context.Background(), 0, func() { panic("boom") }); !errors.Is(err, errShardPanic) {
		t.Fatalf("panicking task: err = %v, want errShardPanic", err)
	}
	ran := false
	if err := p.run(context.Background(), 0, func() { ran = true }); err != nil || !ran {
		t.Fatalf("worker died: err = %v, ran = %v", err, ran)
	}
	p.close()
	p.close() // idempotent, must not re-close channels
	if err := p.run(context.Background(), 0, func() {}); !errors.Is(err, errPoolClosed) {
		t.Fatalf("run after close: err = %v, want errPoolClosed", err)
	}
}

// TestConcurrentReloadsSerialized: POST /config, POST /reload, and SIGHUP
// race on different goroutines; snapshots must publish in version order
// with no accepted config silently lost, and a rejected build must not
// consume a version.
func TestConcurrentReloadsSerialized(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}})
	const goroutines, per = 4, 4
	sets := [][]string{{"expr"}, {"expr", "c-subset"}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := d.Reload(Config{Bundled: sets[(g+i)%2]}); err != nil {
					t.Errorf("reload: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	_, version := d.Snapshot()
	if want := int64(1 + goroutines*per); version != want {
		t.Fatalf("version after %d reloads = %d, want %d (a snapshot was lost or double-published)",
			goroutines*per, version, want)
	}
	if v, err := d.Reload(Config{Bundled: []string{"no-such-language"}}); err == nil || v != version {
		t.Fatalf("rejected reload: version %d, err %v; want %d and an error", v, err, version)
	}
	if _, again := d.Snapshot(); again != version {
		t.Fatalf("rejected reload moved the version: %d -> %d", version, again)
	}
	if got := metricValue(t, scrapeMetrics(t, d), "iglrd_config_version"); got != version {
		t.Errorf("config_version metric = %d, want %d", got, version)
	}
}

// TestAbortedCreateDoesNotLeakQuota: a client that disconnects before the
// initial parse is enqueued never learns the session ID, so the daemon
// must unregister the session itself or repeated aborted creates exhaust
// the quota forever (the default TTL of 0 never evicts).
func TestAbortedCreateDoesNotLeakQuota(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr"}, Shards: 1, MaxSessions: 1})

	// Wedge the only shard so the create's initial parse cannot enqueue.
	block := make(chan struct{})
	wedged := make(chan struct{})
	go d.pool.run(context.Background(), 0, func() { close(wedged); <-block })
	<-wedged

	body := `{"language":"expr","text":"1+2"}`
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", dataURL(d, "/sessions"), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("create on a wedged shard: status %d, want client timeout", resp.StatusCode)
	}

	// The handler notices the abort and must free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for d.sessions.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("aborted create leaked: %d sessions registered", d.sessions.len())
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(block)

	// The single quota slot is usable again.
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("create after aborted create: status %d, want 201 (quota leaked)", s)
	}
	if got := metricValue(t, scrapeMetrics(t, d), "iglrd_sessions_open"); got != 1 {
		t.Errorf("sessions_open = %d, want 1", got)
	}
}

// TestShutdownExpiredDrainAndDoubleShutdown: when the drain deadline
// expires with a handler still wedged on a busy shard, Shutdown must
// report the deadline — not panic the handler on a closed task channel —
// and a second Shutdown must be safe.
func TestShutdownExpiredDrainAndDoubleShutdown(t *testing.T) {
	d, err := New(Config{
		Bundled: []string{"expr"}, Shards: 1,
		Listen: "127.0.0.1:0", AdminListen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Logf = t.Logf
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var created sessionJSON
	if s := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "1+2"}, &created); s != http.StatusCreated {
		t.Fatalf("create: status %d", s)
	}

	// Wedge the only shard, then park a request in the enqueue select.
	block := make(chan struct{})
	wedged := make(chan struct{})
	go d.pool.run(context.Background(), 0, func() { close(wedged); <-block })
	<-wedged
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		if resp, err := http.Get(dataURL(d, "/sessions/"+created.ID)); err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the handler block on the shard

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	err = d.Shutdown(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with wedged handler: err = %v, want deadline exceeded", err)
	}

	close(block)
	<-reqDone
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := d.Shutdown(ctx2); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
