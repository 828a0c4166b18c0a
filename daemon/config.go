// Package daemon promotes the incremental-analysis library into a
// long-lived parse service: concurrent editing sessions over HTTP/JSON,
// sharded across a fixed pool of worker goroutines, governed by per-tenant
// resource quotas, with a localhost admin plane for zero-downtime config
// reloads and Prometheus-style metrics. Command iglrd is the thin binary
// wrapper; everything testable lives here.
//
// The architecture follows the Caddy admin-API model: one versioned
// Config struct owns every knob (listeners, language artifact
// directories, shard count, tenant budgets, the batch-parse
// engine.Policy), and a reload builds a complete new snapshot — compiled
// language set included — then swaps it in atomically. In-flight requests
// finish against the snapshot they started with; new sessions see the new
// one; live sessions keep the budget and language they were created with.
// A reload that fails to build (missing artifact dir, corrupt artifact,
// duplicate language names) leaves the running config untouched.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	incremental "iglr"
	"iglr/engine"
)

// Duration is a time.Duration that marshals to/from JSON as a string
// ("90s", "5m") and also accepts integer nanoseconds, so config files
// stay human-writable.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts both "5m" strings and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	case string:
		dur, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("daemon: bad duration %q: %w", x, err)
		}
		*d = Duration(dur)
		return nil
	default:
		return fmt.Errorf("daemon: bad duration %v", v)
	}
}

// Tenant is one tenant's resource quota. Sessions name their tenant at
// creation; requests without one use the config's default tenant.
type Tenant struct {
	// Budget bounds every parse any of the tenant's sessions runs (see
	// incremental.Budget; the zero value is unlimited). Applied to
	// sessions at creation — a reload changes the budget for sessions
	// created afterwards, never for live ones.
	Budget incremental.Budget `json:"budget,omitempty"`
	// MaxSessions caps the tenant's concurrently open sessions
	// (0 = unlimited). Enforced at session creation with 429.
	MaxSessions int `json:"max_sessions,omitempty"`
}

// Persist configures session durability. When Dir is set every session is
// continuously persisted: accepted edit batches are appended (and fsynced)
// to a per-session write-ahead journal before they are applied, the
// journal is periodically rolled into a snapshot artifact, idle evictions
// park the session on disk instead of destroying it, and a restart —
// graceful or kill -9 — transparently restores a session the next time it
// is touched. Unusable artifacts (corrupt, truncated, version-skewed)
// degrade to a 404 and the client re-creates the session from source; the
// daemon never serves a wrong tree and never fails to start because of
// persistence state.
type Persist struct {
	// Dir is the durability directory ("" disables persistence). Fixed at
	// startup, like Shards: a reload keeps the running store.
	Dir string `json:"dir,omitempty"`
	// JournalMaxBytes rolls a session's journal into a fresh snapshot once
	// it grows past this size (default 256 KiB).
	JournalMaxBytes int64 `json:"journal_max_bytes,omitempty"`
}

// Config is the daemon's complete, versioned configuration. It marshals
// to/from JSON; the admin plane serves the active config at GET /config
// and accepts a replacement at POST /config (or re-reads the config file
// on POST /reload).
type Config struct {
	// Listen is the data-plane address (default "127.0.0.1:8520").
	// Changing it requires a restart.
	Listen string `json:"listen,omitempty"`
	// AdminListen is the admin-plane address (default "127.0.0.1:8521").
	// Keep it loopback: the admin plane can reconfigure the daemon.
	// Changing it requires a restart.
	AdminListen string `json:"admin_listen,omitempty"`
	// Shards is the size of the fixed session-worker pool (default
	// runtime.GOMAXPROCS(0)). Sessions are routed to a shard by session-ID
	// hash and every operation on a session runs on its shard's goroutine,
	// so sessions need no locks. Fixed at startup: a reload with a
	// different value keeps the running pool (the active config reports
	// the effective count).
	Shards int `json:"shards,omitempty"`
	// LanguageDirs are directories of precompiled *.cclang artifacts
	// (see engine.LoadLanguages and cmd/langc). Reloadable: a reload
	// re-reads every directory and serves the new language set.
	LanguageDirs []string `json:"language_dirs,omitempty"`
	// Bundled names compiled-in languages to serve, or ["*"] for all of
	// them. Reloadable.
	Bundled []string `json:"bundled,omitempty"`
	// SessionTTL evicts sessions idle longer than this (0 = never).
	// Reloadable; the janitor reads the active value each sweep.
	SessionTTL Duration `json:"session_ttl,omitempty"`
	// MaxSessions caps open sessions daemon-wide (0 = unlimited).
	MaxSessions int `json:"max_sessions,omitempty"`
	// DefaultTenant is the quota for requests that name no tenant.
	DefaultTenant Tenant `json:"default_tenant,omitempty"`
	// Tenants maps tenant names to quotas. A request naming an unlisted
	// tenant gets the default quota.
	Tenants map[string]Tenant `json:"tenants,omitempty"`
	// Batch is the engine policy for POST /parse one-shot batches —
	// Policy.Workers bounds that pool independently of Shards.
	Batch engine.Policy `json:"batch,omitempty"`
	// Persist enables crash-safe session durability (see Persist). Fixed
	// at startup.
	Persist Persist `json:"persist,omitempty"`

	// MemorySoftBytes is the governor's soft watermark over the accounted
	// live bytes of all sessions (0 = none). At or above it the daemon is
	// under pressure: the janitor parks idle sessions to disk early and
	// new sessions are admitted under PressureBudget. Reloadable.
	MemorySoftBytes int64 `json:"memory_soft_bytes,omitempty"`
	// MemoryHardBytes is the hard watermark (0 = none): the accounting can
	// never pass it. Growth that would — new sessions, restores, a parse
	// that outgrew the headroom — is refused with 503 or sheds the session
	// to disk. Reloadable; must be >= MemorySoftBytes when both are set.
	MemoryHardBytes int64 `json:"memory_hard_bytes,omitempty"`
	// QueueDepth bounds each shard's task queue (default 1024). A full
	// queue sheds data-plane requests with 429 + Retry-After instead of
	// queueing unboundedly behind a slow parse. Fixed at startup, like
	// Shards.
	QueueDepth int `json:"queue_depth,omitempty"`
	// MaxInflight caps concurrently executing data-plane requests
	// (0 = unlimited). Excess requests shed with 429 + Retry-After before
	// touching any session. Reloadable.
	MaxInflight int `json:"max_inflight,omitempty"`
	// StallTimeout bounds one parse (0 = disabled): a parse running longer
	// than this is cancelled via its context and the session is closed as
	// poisoned — the livelock extension of the panic-recovery contract.
	// Reloadable; a reload applies to the parses that start after it.
	StallTimeout Duration `json:"stall_timeout,omitempty"`
	// DefaultDeadline is applied to data-plane requests that carry no
	// deadline of their own (0 = none); queued work whose deadline expired
	// is dropped without parsing. Reloadable.
	DefaultDeadline Duration `json:"default_deadline,omitempty"`
	// PressureBudget, when non-zero, replaces the tenant budget for
	// sessions created while the daemon is under memory pressure, so new
	// admissions run degraded instead of deepening the overload.
	// Reloadable.
	PressureBudget incremental.Budget `json:"pressure_budget,omitempty"`
}

// DecodeConfig reads one JSON config from r. It is strict: an unknown
// field (a typo, or a knob this version no longer has) and trailing data
// after the object are errors, and the error names the offending field.
// Startup, SIGHUP, POST /config and POST /reload all decode through it.
func DecodeConfig(r io.Reader) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Config{}, errors.New("trailing data after config object")
	}
	return cfg, nil
}

// withDefaults returns a copy of c with unset knobs resolved.
func (c Config) withDefaults() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:8520"
	}
	if c.AdminListen == "" {
		c.AdminListen = "127.0.0.1:8521"
	}
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1024
	}
	return c
}

// snapshot is one immutable generation of daemon state: the config plus
// everything compiled from it. Handlers load the current snapshot once per
// request, so a concurrent reload never changes the rules mid-request.
type snapshot struct {
	version int64
	cfg     Config
	langs   map[string]*incremental.Language
}

// tenant resolves a tenant name against this snapshot.
func (sn *snapshot) tenant(name string) Tenant {
	if name != "" {
		if t, ok := sn.cfg.Tenants[name]; ok {
			return t
		}
	}
	return sn.cfg.DefaultTenant
}

// languageNames returns the served language names, sorted.
func (sn *snapshot) languageNames() []string {
	names := make([]string, 0, len(sn.langs))
	for name := range sn.langs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildSnapshot compiles a config into a serving snapshot: defaults
// resolved, every bundled language and artifact directory loaded. Any
// failure (missing dir, corrupt artifact, duplicate language name) fails
// the whole build — a daemon never starts or reloads half-configured.
func buildSnapshot(cfg Config, version int64) (*snapshot, error) {
	cfg = cfg.withDefaults()
	if cfg.MemorySoftBytes > 0 && cfg.MemoryHardBytes > 0 &&
		cfg.MemorySoftBytes > cfg.MemoryHardBytes {
		return nil, fmt.Errorf("daemon: memory_soft_bytes (%d) exceeds memory_hard_bytes (%d)",
			cfg.MemorySoftBytes, cfg.MemoryHardBytes)
	}
	langs := map[string]*incremental.Language{}
	for _, name := range cfg.Bundled {
		if name == "*" {
			for _, n := range incremental.BundledLanguageNames() {
				l, _ := incremental.BundledLanguage(n)
				langs[n] = l
			}
			continue
		}
		l, ok := incremental.BundledLanguage(name)
		if !ok {
			return nil, fmt.Errorf("daemon: no bundled language %q (have %v)",
				name, incremental.BundledLanguageNames())
		}
		langs[name] = l
	}
	for _, dir := range cfg.LanguageDirs {
		loaded, err := engine.LoadLanguages(dir)
		if err != nil {
			return nil, fmt.Errorf("daemon: language dir %s: %w", dir, err)
		}
		for name, l := range loaded {
			if _, dup := langs[name]; dup {
				return nil, fmt.Errorf("daemon: language %q configured twice (artifact dir %s collides with an earlier source)", name, dir)
			}
			langs[name] = l
		}
	}
	if len(langs) == 0 {
		return nil, fmt.Errorf("daemon: no languages configured (set language_dirs or bundled)")
	}
	return &snapshot{version: version, cfg: cfg, langs: langs}, nil
}
