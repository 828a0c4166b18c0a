package daemon

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iglr/internal/faultinject"
)

// persistConfig is the test daemon config with durability on: every
// bundled language served, persistence in a per-test temp dir.
func persistConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Bundled: []string{"*"},
		Persist: Persist{Dir: t.TempDir()},
	}
}

// crashDaemon kills a daemon the way kill -9 looks to the disk: listeners
// are closed hard and no shutdown snapshots are written. The persist
// directory is left exactly as the running daemon's fsyncs made it.
func crashDaemon(t *testing.T, d *Daemon) {
	t.Helper()
	if d.dataSrv != nil {
		d.dataSrv.Close()
		d.adminSrv.Close()
	}
	d.stopJanitor.Do(func() { close(d.janitorStop) })
	<-d.janitorDone
	d.pool.close()
}

// crashableDaemon is testDaemon without the graceful-shutdown cleanup;
// the caller crashes it (or it is leaked to the test's end, harmlessly).
func crashableDaemon(t *testing.T, cfg Config) *Daemon {
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
	return d
}

// outline fetches the committed-tree rendering of the session's whole
// document — the byte-identical recovery oracle.
func outline(t *testing.T, d *Daemon, id string, textLen int) string {
	t.Helper()
	var sub subtreeJSON
	url := dataURL(d, fmt.Sprintf("/sessions/%s/subtree?offset=0&length=%d", id, textLen))
	if status := doJSON(t, "GET", url, nil, &sub); status != http.StatusOK {
		t.Fatalf("subtree: status %d", status)
	}
	return sub.Outline
}

// createExpr opens an expr session and returns its creation response.
func createExpr(t *testing.T, d *Daemon, text string) sessionJSON {
	t.Helper()
	var created sessionJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions"),
		createSessionJSON{Language: "expr", Text: text}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	return created
}

// editOnce applies one edit batch and returns the parse outcome.
func editOnce(t *testing.T, d *Daemon, id string, edits ...editJSON) outcomeJSON {
	t.Helper()
	var out outcomeJSON
	status := doJSON(t, "POST", dataURL(d, "/sessions/"+id+"/edits"),
		editsRequestJSON{Edits: edits}, &out)
	if status != http.StatusOK {
		t.Fatalf("edits: status %d", status)
	}
	return out
}

// TestPersistGracefulRestart: a clean shutdown parks every session; a new
// daemon over the same directory restores them byte-identically, with no
// journal replay needed.
func TestPersistGracefulRestart(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	created := createExpr(t, d1, "1+2*3")
	out := editOnce(t, d1, created.ID, editJSON{Offset: 5, Remove: 0, Insert: "+(4-5)"})
	want := outline(t, d1, created.ID, out.TextLen)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	d2 := testDaemon(t, cfg)
	if got := outline(t, d2, created.ID, out.TextLen); got != want {
		t.Fatalf("restored tree diverged:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	m := scrapeMetrics(t, d2)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v != 1 {
		t.Fatalf("restored_total = %d, want 1", v)
	}
	if v := metricValue(t, m, "iglrd_journal_replayed_total"); v != 0 {
		t.Fatalf("graceful restart replayed %d journal records, want 0", v)
	}
}

// TestPersistCrashRecovery: the tentpole property. The daemon dies without
// any shutdown path (kill -9 analog) after acknowledging several edit
// batches; a new daemon restores the session from its snapshot plus
// journal replay, and the committed tree is byte-identical to the one the
// dead daemon last served.
func TestPersistCrashRecovery(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	text := "1+2*3"
	created := createExpr(t, d1, text)
	var out outcomeJSON
	for i := 0; i < 4; i++ {
		pre := fmt.Sprintf("%d*(", i+1)
		out = editOnce(t, d1, created.ID,
			editJSON{Offset: 0, Remove: 0, Insert: pre},
			editJSON{Offset: len(pre) + len(text), Remove: 0, Insert: ")"})
		if out.Error != "" {
			t.Fatalf("edit %d: %s", i, out.Error)
		}
		text = pre + text + ")"
	}
	want := outline(t, d1, created.ID, out.TextLen)
	crashDaemon(t, d1)

	d2 := testDaemon(t, cfg)
	if got := outline(t, d2, created.ID, out.TextLen); got != want {
		t.Fatalf("recovered tree diverged:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
	m := scrapeMetrics(t, d2)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v != 1 {
		t.Fatalf("restored_total = %d, want 1", v)
	}
	if v := metricValue(t, m, "iglrd_journal_replayed_total"); v != 4 {
		t.Fatalf("journal_replayed_total = %d, want 4", v)
	}

	// The restored session keeps editing — and those edits are durable in
	// turn across a second crash.
	out = editOnce(t, d2, created.ID, editJSON{Offset: 0, Remove: 2, Insert: "9*"})
	if out.Error != "" {
		t.Fatalf("post-restore edit: %s", out.Error)
	}
	want = outline(t, d2, created.ID, out.TextLen)
	crashDaemon(t, d2)
	d3 := testDaemon(t, cfg)
	if got := outline(t, d3, created.ID, out.TextLen); got != want {
		t.Fatalf("second recovery diverged:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestPersistJournalOpenedAtCreate: a persistent create leaves the
// session's journal on disk next to its meta record and snapshot, so the
// first edit only appends to it; a hard close before any edit restores
// the session from those files.
func TestPersistJournalOpenedAtCreate(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	created := createExpr(t, d1, "1+2*3")
	for _, ext := range []string{".json", ".ccsess", ".wal"} {
		if _, err := os.Stat(filepath.Join(cfg.Persist.Dir, created.ID+ext)); err != nil {
			t.Fatalf("after create: %v", err)
		}
	}
	want := outline(t, d1, created.ID, created.Outcome.TextLen)
	crashDaemon(t, d1)

	d2 := testDaemon(t, cfg)
	if got := outline(t, d2, created.ID, created.Outcome.TextLen); got != want {
		t.Fatalf("restored tree diverged:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	m := scrapeMetrics(t, d2)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v != 1 {
		t.Fatalf("restored_total = %d, want 1", v)
	}
	out := editOnce(t, d2, created.ID, editJSON{Offset: 0, Remove: 1, Insert: "4"})
	if out.Error != "" {
		t.Fatalf("edit after restore: %s", out.Error)
	}
}

// TestPersistTornJournal: a crash mid-append leaves a torn record at the
// journal's tail. Recovery replays the intact prefix, counts the tear,
// truncates it, and the session stays consistent across further edits and
// another restart.
func TestPersistTornJournal(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	created := createExpr(t, d1, "1+2*3")
	out := editOnce(t, d1, created.ID, editJSON{Offset: 0, Remove: 0, Insert: "7+"})
	want := outline(t, d1, created.ID, out.TextLen)
	crashDaemon(t, d1)

	// Tear the tail: half a frame of a would-be next record.
	walPath := filepath.Join(cfg.Persist.Dir, created.ID+".wal")
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	d2 := testDaemon(t, cfg)
	if got := outline(t, d2, created.ID, out.TextLen); got != want {
		t.Fatalf("torn-tail recovery diverged:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
	m := scrapeMetrics(t, d2)
	if v := metricValue(t, m, "iglrd_journal_torn_total"); v != 1 {
		t.Fatalf("journal_torn_total = %d, want 1", v)
	}
	// The tear was cut off, so the journal grows intact from here.
	if data, err := os.ReadFile(walPath); err != nil || len(data) != len(intact) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d (err %v)", len(data), len(intact), err)
	}
	editOnce(t, d2, created.ID, editJSON{Offset: 0, Remove: 1, Insert: "8"})
}

// TestPersistCorruptSnapshot: an unusable snapshot artifact — corrupt, or
// written by another format version — degrades to a 404: the daemon
// neither fails nor serves a wrong tree, and the artifacts are removed so
// the failure is never retried.
func TestPersistCorruptSnapshot(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, path string){
		"bitflip": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 10); err != nil {
				t.Fatal(err)
			}
		},
		// A well-formed artifact of format version 2, which held the token
		// stream and node table, resealed behind a valid checksum.
		"version2": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body := data[:len(data)-sha256.Size]
			body[len("CCSS")] = 2 // the single-byte uvarint format version
			sum := sha256.Sum256(body)
			if err := os.WriteFile(path, append(body, sum[:]...), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := persistConfig(t)
			d1 := crashableDaemon(t, cfg)
			created := createExpr(t, d1, "1+2*3")
			crashDaemon(t, d1)
			corrupt(t, filepath.Join(cfg.Persist.Dir, created.ID+".ccsess"))

			d2 := testDaemon(t, cfg)
			status := doJSON(t, "GET", dataURL(d2, "/sessions/"+created.ID), nil, nil)
			if status != http.StatusNotFound {
				t.Fatalf("corrupt snapshot: status %d, want 404", status)
			}
			m := scrapeMetrics(t, d2)
			if v := metricValue(t, m, "iglrd_session_restore_misses_total"); v != 1 {
				t.Fatalf("restore_misses_total = %d, want 1", v)
			}
			if _, err := os.Stat(filepath.Join(cfg.Persist.Dir, created.ID+".json")); !os.IsNotExist(err) {
				t.Fatalf("unusable artifacts were not removed (err %v)", err)
			}
			// The daemon still serves: a replacement session works and gets
			// a fresh ID (the dead one is never reissued).
			repl := createExpr(t, d2, "1+2*3")
			if repl.ID == created.ID {
				t.Fatalf("persisted ID %s was reissued", created.ID)
			}
		})
	}
}

// TestPersistEvictRestore: idle eviction parks the session on disk and the
// next touch transparently restores it.
func TestPersistEvictRestore(t *testing.T) {
	cfg := persistConfig(t)
	cfg.SessionTTL = Duration(50 * time.Millisecond)
	d := testDaemon(t, cfg)
	created := createExpr(t, d, "1+2*3")
	out := editOnce(t, d, created.ID, editJSON{Offset: 0, Remove: 0, Insert: "7+"})
	want := outline(t, d, created.ID, out.TextLen)

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := scrapeMetrics(t, d)
		if metricValue(t, m, "iglrd_sessions_evicted_to_disk_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never evicted to disk")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := outline(t, d, created.ID, out.TextLen); got != want {
		t.Fatalf("evict/restore diverged:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	m := scrapeMetrics(t, d)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v < 1 {
		t.Fatalf("restored_total = %d, want >= 1", v)
	}
}

// TestPersistDelete: DELETE removes the artifacts; the session does not
// resurrect after a restart.
func TestPersistDelete(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	created := createExpr(t, d1, "1+2*3")
	if status := doJSON(t, "DELETE", dataURL(d1, "/sessions/"+created.ID), nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	entries, _ := os.ReadDir(cfg.Persist.Dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), created.ID) {
			t.Fatalf("artifact %s survived DELETE", e.Name())
		}
	}
	crashDaemon(t, d1)
	d2 := testDaemon(t, cfg)
	if status := doJSON(t, "GET", dataURL(d2, "/sessions/"+created.ID), nil, nil); status != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: status %d", status)
	}
}

// TestPersistDeleteParked: DELETE of a session parked on disk removes its
// artifacts without restoring it, also once its language has left the
// config; the ID then answers 404.
func TestPersistDeleteParked(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	first, second := createExpr(t, d1, "1+2*3"), createExpr(t, d1, "4*5")
	crashDaemon(t, d1)

	d2 := testDaemon(t, cfg)
	noExpr := cfg
	noExpr.Bundled = []string{"c-subset"}
	for i, id := range []string{first.ID, second.ID} {
		if i == 1 {
			if _, err := d2.Reload(noExpr); err != nil {
				t.Fatalf("reload without expr: %v", err)
			}
		}
		if status := doJSON(t, "DELETE", dataURL(d2, "/sessions/"+id), nil, nil); status != http.StatusNoContent {
			t.Fatalf("delete of parked %s: status %d", id, status)
		}
		entries, _ := os.ReadDir(cfg.Persist.Dir)
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), id) {
				t.Fatalf("artifact %s survived DELETE", e.Name())
			}
		}
		if status := doJSON(t, "GET", dataURL(d2, "/sessions/"+id), nil, nil); status != http.StatusNotFound {
			t.Fatalf("GET after DELETE of %s: status %d", id, status)
		}
	}
	m := scrapeMetrics(t, d2)
	if v := metricValue(t, m, "iglrd_sessions_restored_total"); v != 0 {
		t.Fatalf("restored_total = %d, want 0", v)
	}
	if v := metricValue(t, m, "iglrd_sessions_closed_total"); v != 2 {
		t.Fatalf("closed_total = %d, want 2", v)
	}
}

// TestPersistTolerantSession: error-recovery sessions persist their
// quarantined error regions and diagnostics across a crash.
func TestPersistTolerantSession(t *testing.T) {
	cfg := persistConfig(t)
	d1 := crashableDaemon(t, cfg)
	var created sessionJSON
	status := doJSON(t, "POST", dataURL(d1, "/sessions"), createSessionJSON{
		Language: "c-subset", Text: "typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
		Tolerant: true,
	}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	out := editOnce(t, d1, created.ID, editJSON{Offset: 20, Remove: 0, Insert: "@#! "})
	if out.Clean || !out.Isolated || len(out.Diagnostics) == 0 {
		t.Fatalf("want isolated error outcome, got %+v", out)
	}
	want := outline(t, d1, created.ID, out.TextLen)
	crashDaemon(t, d1)

	d2 := testDaemon(t, cfg)
	if got := outline(t, d2, created.ID, out.TextLen); got != want {
		t.Fatalf("tolerant recovery diverged:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
	var diag struct {
		Diagnostics []diagnosticJSON `json:"diagnostics"`
	}
	doJSON(t, "GET", dataURL(d2, "/sessions/"+created.ID+"/diagnostics"), nil, &diag)
	if len(diag.Diagnostics) == 0 {
		t.Fatal("diagnostics lost in recovery")
	}
	// Repair converges the restored session back to a clean tree.
	out = editOnce(t, d2, created.ID, editJSON{Offset: 20, Remove: 4, Insert: ""})
	if !out.Clean {
		t.Fatalf("repair did not converge: %+v", out)
	}
}

// TestPersistFaultInjection: injected disk failures (append, fsync,
// snapshot) disable persistence for the one session, never break the live
// session, and never let a later restart serve stale state.
func TestPersistFaultInjection(t *testing.T) {
	for name, point := range map[string]faultinject.Point{
		"append":   faultinject.PersistAppend,
		"sync":     faultinject.PersistSync,
		"snapshot": faultinject.PersistSnapshot,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := persistConfig(t)
			// Rotate on every parse so the PersistSnapshot point is reached
			// by an ordinary edit, not only at session creation.
			cfg.Persist.JournalMaxBytes = 1
			d1 := crashableDaemon(t, cfg)
			created := createExpr(t, d1, "1+2*3")

			faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
				Point: point, Do: faultinject.ActError,
			}))
			out := editOnce(t, d1, created.ID, editJSON{Offset: 0, Remove: 0, Insert: "7+"})
			faultinject.Deactivate()
			if out.Error != "" || !out.Clean {
				t.Fatalf("live session broken by persist fault: %+v", out)
			}
			// The live session keeps working after the fault.
			out = editOnce(t, d1, created.ID, editJSON{Offset: 0, Remove: 1, Insert: "8"})
			if out.Error != "" || !out.Clean {
				t.Fatalf("live session broken after persist fault: %+v", out)
			}
			m := scrapeMetrics(t, d1)
			if v := metricValue(t, m, "iglrd_persist_errors_total"); v != 1 {
				t.Fatalf("persist_errors_total = %d, want 1", v)
			}
			crashDaemon(t, d1)

			// Half-durable state must not restore stale: the artifacts are
			// gone and the session is a clean 404.
			d2 := testDaemon(t, cfg)
			if status := doJSON(t, "GET", dataURL(d2, "/sessions/"+created.ID), nil, nil); status != http.StatusNotFound {
				t.Fatalf("half-durable session restored: status %d", status)
			}
		})
	}
}

// TestPersistSnapshotRotation: a journal past the threshold rolls into a
// fresh snapshot, and the journal is truncated.
func TestPersistSnapshotRotation(t *testing.T) {
	cfg := persistConfig(t)
	cfg.Persist.JournalMaxBytes = 64 // every batch crosses the threshold
	d := testDaemon(t, cfg)
	created := createExpr(t, d, "1+2*3")
	filler := strings.Repeat("+1", 40)
	out := editOnce(t, d, created.ID, editJSON{Offset: 5, Remove: 0, Insert: filler})
	want := outline(t, d, created.ID, out.TextLen)

	m := scrapeMetrics(t, d)
	// One snapshot at creation, one rotation after the oversized batch.
	if v := metricValue(t, m, "iglrd_snapshots_written_total"); v != 2 {
		t.Fatalf("snapshots_written_total = %d, want 2", v)
	}
	wal, err := os.ReadFile(filepath.Join(cfg.Persist.Dir, created.ID+".wal"))
	if err != nil || len(wal) != 0 {
		t.Fatalf("journal not truncated after rotation: %d bytes (err %v)", len(wal), err)
	}
	// The rotated snapshot alone reproduces the session.
	if got := outline(t, d, created.ID, out.TextLen); got != want {
		t.Fatalf("rotation diverged")
	}
}

// TestPersistForeignIDRejected: request IDs that are not registry-shaped
// never reach the filesystem.
func TestPersistForeignIDRejected(t *testing.T) {
	d := testDaemon(t, persistConfig(t))
	for _, id := range []string{"..%2fetc", "s0000000g", "sAAAAAAAA", "x00000001", "s000000001"} {
		if status := doJSON(t, "GET", dataURL(d, "/sessions/"+id), nil, nil); status != http.StatusNotFound {
			t.Fatalf("id %q: status %d, want 404", id, status)
		}
	}
}
