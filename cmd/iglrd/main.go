// Command iglrd is the incremental-analysis parse daemon: a long-lived
// HTTP/JSON service that holds editing sessions open across requests so
// every reparse is incremental (see package iglr/daemon).
//
// Usage:
//
//	iglrd -config iglrd.json
//	iglrd -bundled '*'                      # serve every compiled-in language
//	iglrd -langs dist/langs -listen :8520   # serve a langc artifact directory
//
// The data plane (sessions, edits, diagnostics, batch parses) listens on
// -listen; the admin plane (/healthz, /config, /reload, /metrics) on
// -admin, which should stay on loopback. SIGHUP re-reads -config and
// applies it with zero downtime, exactly like POST /reload; SIGINT/SIGTERM
// drain and exit.
//
// With -persist-dir the daemon is crash-safe: acknowledged edits are
// journaled to disk before they apply, sessions snapshot on eviction and
// shutdown, and a restart over the same directory restores each session
// on its first touch (see DESIGN.md, "Durability & crash recovery").
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iglr/daemon"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("iglrd: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iglrd", flag.ExitOnError)
	var (
		configPath = fs.String("config", "", "JSON config file (reloaded on SIGHUP or POST /reload)")
		listen     = fs.String("listen", "", "data-plane address (overrides config)")
		admin      = fs.String("admin", "", "admin-plane address (overrides config; keep loopback)")
		langDirs   = fs.String("langs", "", "comma-separated *.cclang artifact directories (overrides config)")
		bundled    = fs.String("bundled", "", "comma-separated bundled language names, or '*' (overrides config)")
		ttl        = fs.Duration("session-ttl", 0, "evict sessions idle longer than this (overrides config)")
		persistDir = fs.String("persist-dir", "", "session durability directory: snapshots + write-ahead journals, crash-safe restarts (overrides config)")
	)
	fs.Parse(args)

	cfg, err := loadConfig(*configPath)
	if err != nil {
		return err
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *admin != "" {
		cfg.AdminListen = *admin
	}
	if *langDirs != "" {
		cfg.LanguageDirs = strings.Split(*langDirs, ",")
	}
	if *bundled != "" {
		cfg.Bundled = strings.Split(*bundled, ",")
	}
	if *ttl > 0 {
		cfg.SessionTTL = daemon.Duration(*ttl)
	}
	if *persistDir != "" {
		cfg.Persist.Dir = *persistDir
	}

	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	d.ConfigPath = *configPath
	if err := d.Start(); err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			log.Printf("%v: draining", s)
			break
		}
		// SIGHUP: re-read the config file and hot-swap, like POST /reload.
		if *configPath == "" {
			log.Printf("SIGHUP ignored: no -config file to re-read")
			continue
		}
		next, err := loadConfig(*configPath)
		if err != nil {
			log.Printf("SIGHUP reload rejected: %v", err)
			continue
		}
		if _, err := d.Reload(next); err != nil {
			log.Printf("SIGHUP reload rejected: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

// loadConfig reads a daemon config file, or returns the zero config when
// no path is given (flags must then supply a language source).
func loadConfig(path string) (daemon.Config, error) {
	var cfg daemon.Config
	if path == "" {
		return cfg, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if cfg, err = daemon.DecodeConfig(bytes.NewReader(data)); err != nil {
		return cfg, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
