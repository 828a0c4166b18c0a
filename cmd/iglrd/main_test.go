package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iglr/daemon"
)

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "iglrd.json")
	if err := os.WriteFile(path, []byte(`{
		"listen": "127.0.0.1:9520",
		"bundled": ["expr"],
		"session_ttl": "90s",
		"tenants": {"ide": {"max_sessions": 32}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:9520" || len(cfg.Bundled) != 1 ||
		time.Duration(cfg.SessionTTL) != 90*time.Second ||
		cfg.Tenants["ide"].MaxSessions != 32 {
		t.Fatalf("loadConfig: %+v", cfg)
	}
}

// TestLoadConfigRejectsUnknownFields: a typo'd field and a knob this
// version no longer has are both refused, and the error names the field.
func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "iglrd.json")
	for field, raw := range map[string]string{
		"listn":       `{"bundled": ["expr"], "listn": ":1"}`,
		"lex_workers": `{"bundled": ["expr"], "batch": {"workers": 2, "lex_workers": 4}}`,
	} {
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadConfig(path)
		if err == nil {
			t.Fatalf("config naming %q accepted", field)
		}
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("error %q does not name %q", err, field)
		}
	}
}

func TestLoadConfigEmptyPath(t *testing.T) {
	cfg, err := loadConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if !jsonZero(cfg) {
		t.Fatalf("zero config expected, got %+v", cfg)
	}
}

func jsonZero(cfg daemon.Config) bool {
	a, _ := json.Marshal(cfg)
	b, _ := json.Marshal(daemon.Config{})
	return string(a) == string(b)
}
