package daemon

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	incremental "iglr"
	"iglr/internal/corpus"
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

// TestTolerantSessionKeepsUnboundedEdit: an edit no sequence can confine
// (expr has none) is answered as isolated, with one diagnostic, and the
// session's text holds it: a read of the whole text shows the edited
// token. A tolerant create over garbage answers with a diagnostic, not an
// error.
func TestTolerantSessionKeepsUnboundedEdit(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"expr", "c-subset"}})

	var created sessionJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: "a + b", Tolerant: true}, &created)
	if status != http.StatusCreated || !created.Outcome.Clean {
		t.Fatalf("create: status %d, outcome %+v", status, created.Outcome)
	}
	var out outcomeJSON
	status = doJSON(t, "POST", dataURL(d, "/sessions/"+created.ID+"/edits"),
		editsRequestJSON{Edits: []editJSON{{Offset: 2, Remove: 1, Insert: ")"}}}, &out)
	if status != http.StatusOK || out.Error != "" || !out.Isolated || len(out.Diagnostics) != 1 {
		t.Fatalf("edit: status %d, want isolated with one diagnostic, got %+v", status, out)
	}
	var sub subtreeJSON
	status = doJSON(t, "GET", dataURL(d, "/sessions/"+created.ID+"/subtree?offset=0&length=5"), nil, &sub)
	if status != http.StatusOK || !strings.Contains(sub.Outline, `")"`) {
		t.Fatalf("subtree: status %d, want the edited token in the outline, got %+v", status, sub)
	}

	var garbage sessionJSON
	status = doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "c-subset", Text: ") ) ) )", Tolerant: true}, &garbage)
	if status != http.StatusCreated || garbage.Outcome.Error != "" || len(garbage.Outcome.Diagnostics) != 1 {
		t.Fatalf("create over garbage: status %d, outcome %+v", status, garbage.Outcome)
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

// TestReloadRejectsCorruptArtifact: a language dir holding an artifact
// that is intact by its checksum but corrupt behind it (the grammar's
// symbol count rewritten to 2^63+5, the checksum recomputed) fails the
// reload with 422, and the active config keeps serving.
func TestReloadRejectsCorruptArtifact(t *testing.T) {
	var buf bytes.Buffer
	if err := incremental.ExprLanguage().SaveCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[:buf.Len()-sha256.Size]
	at := bytes.Index(body, []byte("IGGR")) + len("IGGR") + 1 // grammar magic, one-byte version
	_, n := binary.Uvarint(body[at:])
	data := append(append([]byte(nil), body[:at]...), binary.AppendUvarint(nil, 1<<63+5)...)
	data = append(data, body[at+n:]...)
	sum := sha256.Sum256(data)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "expr"+incremental.CompiledExt), append(data, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	d := testDaemon(t, Config{Bundled: []string{"c-subset"}})
	var e errorJSON
	if s := doJSON(t, "POST", adminURL(d, "/config"), Config{LanguageDirs: []string{dir}}, &e); s != http.StatusUnprocessableEntity {
		t.Fatalf("reload over a corrupt artifact: status %d (%s), want 422", s, e.Error)
	}
	var got struct {
		Version int64 `json:"version"`
	}
	doJSON(t, "GET", adminURL(d, "/config"), nil, &got)
	var langs struct {
		Languages []string `json:"languages"`
	}
	doJSON(t, "GET", dataURL(d, "/languages"), nil, &langs)
	if got.Version != 1 || len(langs.Languages) != 1 || langs.Languages[0] != "c-subset" {
		t.Fatalf("after the refused reload: version %d, languages %v; want 1, [c-subset]", got.Version, langs.Languages)
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

// TestCapOutlineRuneBoundary: the outline cap backs up to a character
// start, so a cut that falls inside « or » never reaches the client as a
// broken character; an outline within the cap passes unchanged.
func TestCapOutlineRuneBoundary(t *testing.T) {
	const mark = "\n… (truncated)\n"
	head := strings.Repeat("a", maxOutlineBytes-1)
	for _, c := range []struct {
		tail    string
		wantLen int // bytes kept before the mark
	}{
		{"«x»", maxOutlineBytes - 1}, // the cap falls inside «
		{"»", maxOutlineBytes - 1},   // ... inside »
		{"a«", maxOutlineBytes},      // ... on the boundary before «
	} {
		long := head + c.tail + strings.Repeat("b", 10)
		got := capOutline(long)
		body, ok := strings.CutSuffix(got, mark)
		if !ok || !utf8.ValidString(got) || len(body) != c.wantLen || !strings.HasPrefix(long, body) {
			t.Fatalf("tail %q: got %d bytes + mark=%v (valid UTF-8 %v), want a %d-byte prefix + mark",
				c.tail, len(body), ok, utf8.ValidString(got), c.wantLen)
		}
	}
	short := head[1:] + "»" // exactly maxOutlineBytes
	if got := capOutline(short); got != short {
		t.Fatal("outline within the cap was changed")
	}
}

// TestRenderOutlineEqualsCappedFormat: the capped render is byte for byte
// what capping the whole outline gives, for outlines far past the cap (the
// root of a 2,000-line file renders ~1.2 MB), near it and within it: every
// node down one path from the root, and the nodes under random cursors.
func TestRenderOutlineEqualsCappedFormat(t *testing.T) {
	lang, _ := incremental.BundledLanguage("c-subset")
	src, _ := corpus.Generate(corpus.Spec{Name: "outline", Lines: 2000, Lang: "c", AmbiguousPerKLoC: 30, Seed: 3})
	s := incremental.NewSession(lang, src)
	if out := s.Do(context.Background()); !out.Clean {
		t.Fatal(out.Err)
	}
	nodes := []*incremental.Node{}
	for n := s.Tree(); ; n = n.Kids[len(n.Kids)/2] {
		nodes = append(nodes, n)
		if len(n.Kids) == 0 {
			break
		}
	}
	for _, p := range corpus.SelfCancellingEdits(src, 16, 5) {
		nodes = append(nodes, s.Subtree(p[0].Offset, 1+p[0].Offset%300))
	}
	capped := 0
	for _, n := range nodes {
		want := capOutline(incremental.FormatDag(lang, n))
		if got := renderOutline(lang, n); got != want {
			t.Fatalf("%v: rendered outline (%d bytes) differs from the capped format (%d bytes)", n, len(got), len(want))
		}
		if strings.HasSuffix(want, "… (truncated)\n") {
			capped++
		}
	}
	if capped == 0 || capped == len(nodes) {
		t.Fatalf("%d of %d outlines capped: want both kinds", capped, len(nodes))
	}
}

// TestSubtreeOutlineAllocBounded: a subtree request for the root's span in
// a 16,000-line session renders its outline only up to the cap, so the
// request allocates under 1 MB (rendering the whole outline first, ~10 MB
// of text, allocated ~60 MB), and answers the capped outline.
func TestSubtreeOutlineAllocBounded(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"c-subset"}})
	lang, _ := incremental.BundledLanguage("c-subset")
	src, _ := corpus.Generate(corpus.Spec{Name: "outline", Lines: 16000, Lang: "c", Seed: 1})
	ref := incremental.NewSession(lang, src)
	if out := ref.Do(context.Background()); !out.Clean {
		t.Fatal(out.Err)
	}
	off, ln := 0, len(src)
	var created sessionJSON
	if status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "c-subset", Text: src}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	url := dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=%d&length=%d", created.ID, off, ln))
	// The body is read into storage allocated outside the count, which
	// then holds the request's own allocations: the daemon's, and the
	// client's transport.
	get := func(body *bytes.Buffer) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("subtree: status %d, %v", resp.StatusCode, err)
		}
	}
	get(new(bytes.Buffer)) // warm the connection
	body := bytes.NewBuffer(make([]byte, 0, 256<<10))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	get(body)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("a subtree request for the whole text at 16,000 lines allocated %d bytes, want under 1 MB", n)
	} else {
		t.Logf("a subtree request for the whole text at 16,000 lines allocated %d bytes", n)
	}
	var sub subtreeJSON
	if err := json.Unmarshal(body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if want := capOutline(incremental.FormatDag(lang, ref.Subtree(off, ln))); sub.Outline != want {
		t.Fatalf("outline of %d bytes differs from the capped reference outline of %d bytes", len(sub.Outline), len(want))
	}
}

// TestSubtreeWholeText: offset=0&length=text_len asks for the whole tree
// even when the text starts or ends in whitespace, which lies outside the
// root's span; a range in leading whitespace is clamped to the span too,
// and a range that touches no terminal is still a 404.
func TestSubtreeWholeText(t *testing.T) {
	d := testDaemon(t, Config{Bundled: []string{"c-subset"}})
	lang, _ := incremental.BundledLanguage("c-subset")
	for _, text := range []string{"int a;\nint b;\n", "\n  int a; int b;"} {
		lead := len(text) - len(strings.TrimLeft(text, " \n"))
		trail := len(strings.TrimRight(text, " \n"))
		ref := incremental.NewSession(lang, text)
		if out := ref.Do(context.Background()); !out.Clean {
			t.Fatal(out.Err)
		}
		var created sessionJSON
		if status := doJSON(t, "POST", dataURL(d, "/sessions"),
			createSessionJSON{Language: "c-subset", Text: text}, &created); status != http.StatusCreated {
			t.Fatalf("create: status %d", status)
		}
		var sub subtreeJSON
		url := dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=0&length=%d", created.ID, len(text)))
		if status := doJSON(t, "GET", url, nil, &sub); status != http.StatusOK {
			t.Fatalf("whole-text subtree of %q: status %d, want 200", text, status)
		}
		if want := incremental.FormatDag(lang, ref.Subtree(lead, trail-lead)); sub.Offset != lead || sub.Length != trail-lead || sub.Outline != want {
			t.Fatalf("whole-text subtree of %q: [%d,+%d)\n%s\nwant [%d,+%d)\n%s", text, sub.Offset, sub.Length, sub.Outline, lead, trail-lead, want)
		}
		url = dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=0&length=%d", created.ID, lead+1))
		if status := doJSON(t, "GET", url, nil, &sub); status != http.StatusOK || sub.Offset != lead {
			t.Fatalf("subtree from leading whitespace into %q: status %d, offset %d, want 200 at %d", text, status, sub.Offset, lead)
		}
		url = dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=%d&length=%d", created.ID, trail, len(text)-trail))
		if status := doJSON(t, "GET", url, nil, nil); trail < len(text) && status != http.StatusNotFound {
			t.Fatalf("subtree of the trailing whitespace of %q: status %d, want 404", text, status)
		}
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
	req := httptest.NewRequest("GET", "/sessions/"+created.ID, nil)
	req.SetPathValue("id", created.ID)
	rec := httptest.NewRecorder()
	if d.runSession(rec, req, func(*session) { panic("poisoned parse state") }) {
		t.Fatal("runSession reported a panicked task as served")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked task: status %d, want 500", rec.Code)
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

// TestAbortedCreateDoesNotLeakQuota: a client that disconnects before its
// create's task runs never learns the session ID and could never DELETE
// it, so a dropped create must leave nothing registered, or repeated
// aborted creates exhaust the quota forever (the default TTL of 0 never
// evicts). The task registers the session, so a task that never ran
// registered nothing.
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

	// The handler notices the abort and abandons the queued task, which
	// then never runs: nothing holds the slot.
	if v := pollMetric(t, d, "iglrd_queue_expired_total", 1, 5*time.Second); v != 1 {
		t.Fatalf("queue_expired_total = %d, want 1 (the aborted create's task)", v)
	}
	close(block)
	if n := d.sessions.len(); n != 0 {
		t.Fatalf("aborted create leaked: %d sessions registered", n)
	}

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

// TestMetricsInventory pins what GET /metrics declares: every family once,
// with one # HELP and one # TYPE line and its samples in one block after
// them, and the families and their types exactly the list below. A metric
// added, dropped, renamed, retyped or declared twice fails it; the order
// of the families may change.
func TestMetricsInventory(t *testing.T) {
	want := map[string]string{
		"iglrd_config_version":                  "gauge",
		"iglrd_config_reloads_total":            "counter",
		"iglrd_config_reload_errors_total":      "counter",
		"iglrd_sessions_open":                   "gauge",
		"iglrd_sessions_opened_total":           "counter",
		"iglrd_sessions_closed_total":           "counter",
		"iglrd_sessions_evicted_total":          "counter",
		"iglrd_sessions_denied_total":           "counter",
		"iglrd_recovered_panics_total":          "counter",
		"iglrd_edits_total":                     "counter",
		"iglrd_parses_total":                    "counter",
		"iglrd_parse_errors_total":              "counter",
		"iglrd_budget_trips_total":              "counter",
		"iglrd_degraded_parses_total":           "counter",
		"iglrd_isolated_parses_total":           "counter",
		"iglrd_diagnostics_total":               "counter",
		"iglrd_parse_seconds":                   "histogram",
		"iglrd_shed_queue_full_total":           "counter",
		"iglrd_shed_inflight_total":             "counter",
		"iglrd_shed_memory_total":               "counter",
		"iglrd_queue_expired_total":             "counter",
		"iglrd_watchdog_cancels_total":          "counter",
		"iglrd_pressure_evictions_total":        "counter",
		"iglrd_degraded_admits_total":           "counter",
		"iglrd_queue_wait_seconds":              "histogram",
		"iglrd_batch_requests_total":            "counter",
		"iglrd_batch_files_total":               "counter",
		"iglrd_batch_failed_files_total":        "counter",
		"iglrd_sessions_restored_total":         "counter",
		"iglrd_session_restore_misses_total":    "counter",
		"iglrd_session_restores_diverged_total": "counter",
		"iglrd_sessions_evicted_to_disk_total":  "counter",
		"iglrd_journal_records_total":           "counter",
		"iglrd_journal_replayed_total":          "counter",
		"iglrd_journal_torn_total":              "counter",
		"iglrd_snapshots_written_total":         "counter",
		"iglrd_persist_errors_total":            "counter",
		"iglrd_memory_bytes":                    "gauge",
		"iglrd_memory_soft_bytes":               "gauge",
		"iglrd_memory_hard_bytes":               "gauge",
		"iglrd_memory_state":                    "gauge",
		"iglrd_shard_memory_bytes":              "gauge",
		"iglrd_inflight_requests":               "gauge",
	}
	d := testDaemon(t, Config{Bundled: []string{"expr"}, Shards: 2})
	createExpr(t, d, "1+2")

	var (
		help    = map[string]int{}
		types   = map[string]string{}
		samples = map[string]int{}
		cur     string // the family of the last # TYPE line
	)
	for _, line := range strings.Split(strings.TrimSuffix(scrapeMetrics(t, d), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			help[name]++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("malformed line %q", line)
			}
			if _, dup := types[f[0]]; dup {
				t.Errorf("family %s has two # TYPE lines", f[0])
			}
			if help[f[0]] != 1 {
				t.Errorf("family %s: %d # HELP lines before its # TYPE line, want 1", f[0], help[f[0]])
			}
			types[f[0]], cur = f[1], f[0]
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if types[cur] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && base == cur {
					name = cur
				}
			}
		}
		if name != cur {
			t.Errorf("sample %q outside its family's block (after # TYPE %s)", line, cur)
		}
		samples[name]++
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("family %s has %d # HELP lines", name, n)
		}
	}
	for name, typ := range types {
		if samples[name] == 0 {
			t.Errorf("family %s has no sample", name)
		}
		if want[name] != typ {
			t.Errorf("family %s is a %s; the inventory says %q", name, typ, want[name])
		}
	}
	for name := range want {
		if _, ok := types[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
}
