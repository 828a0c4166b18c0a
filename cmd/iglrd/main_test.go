package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iglr/daemon"
)

// TestCommandLineExits runs the command itself on bad command lines. A
// positional argument (which ends flag parsing, so every flag after it was
// dropped and the daemon served on the default ports), a negative
// -session-ttl (which was ignored, so nothing was ever evicted) and an
// undefined flag exit 2 with the usage text; a configuration the daemon
// cannot serve exits 1 with a message naming what is wrong. No case may
// start serving. The test binary re-runs this test with the command's
// arguments after "--", and that child calls main.
func TestCommandLineExits(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"iglrd"}, args...)
		main()
		return
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	loopback := []string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0"}
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"positional argument", []string{"-bundled", "expr", "stray", "-listen", "127.0.0.1:1", "-admin", "127.0.0.1:0"}, 2, []string{`"stray"`, "Usage of iglrd"}},
		{"negative session ttl", append([]string{"-bundled", "expr", "-session-ttl", "-5s"}, loopback...), 2, []string{"-session-ttl -5s", "Usage of iglrd"}},
		{"undefined flag", []string{"-bundle", "expr"}, 2, []string{"-bundle", "Usage of iglrd"}},
		{"unknown bundled language", append([]string{"-bundled", "nosuch"}, loopback...), 1, []string{`"nosuch"`}},
		{"missing language dir", append([]string{"-langs", filepath.Join(dir, "nodir")}, loopback...), 1, []string{"nodir"}},
		{"missing config", []string{"-config", filepath.Join(dir, "iglrd.json")}, 1, []string{"iglrd.json"}},
		{"uncreatable persist dir", append([]string{"-bundled", "expr", "-persist-dir", filepath.Join(file, "state")}, loopback...), 1, []string{"persist dir"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-test.run=^TestCommandLineExits$", "--"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("iglrd %s started serving instead of exiting %d (stderr %q)", strings.Join(tc.args, " "), tc.code, stderr.String())
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
				t.Fatalf("iglrd %s: exit %v, want status %d (stderr %q)", strings.Join(tc.args, " "), err, tc.code, stderr.String())
			}
			for _, s := range tc.want {
				if !strings.Contains(stderr.String(), s) {
					t.Fatalf("iglrd %s: stderr %q does not name %s", strings.Join(tc.args, " "), stderr.String(), s)
				}
			}
		})
	}
}

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
