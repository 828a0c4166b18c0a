package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iglr/internal/govern"
)

// Daemon is the long-lived parse service. Create one with New, serve with
// Start (or mount Handler/AdminHandler yourself), reconfigure at runtime
// with Reload, and stop with Shutdown.
type Daemon struct {
	snap atomic.Pointer[snapshot]
	// reloadMu serializes snapshot publication (Reload from POST /config,
	// POST /reload, and SIGHUP race on different goroutines): snapshots
	// always publish in version order, so a slow build can never clobber
	// a config accepted after it.
	reloadMu sync.Mutex
	mets     metrics
	pool     *shardPool
	sessions *registry
	// persist is the session durability store (nil when persistence is
	// disabled). Fixed at startup, like the shard pool.
	persist *persistStore
	// gov accounts every session's memory footprint per shard and globally
	// against the config's soft/hard watermarks (see internal/govern).
	gov *govern.Governor
	// inflight counts concurrently executing data-plane requests for the
	// MaxInflight admission cap.
	inflight atomic.Int64

	// ConfigPath, when set, is the file POST /reload re-reads. The
	// command-line wrapper sets it; embedded daemons may leave it empty
	// and use POST /config (or Reload) instead.
	ConfigPath string

	// Logf receives daemon lifecycle lines (default log.Printf; set to a
	// no-op to silence tests).
	Logf func(format string, args ...any)

	dataSrv, adminSrv *http.Server
	dataLn, adminLn   net.Listener
	janitorStop       chan struct{}
	janitorDone       chan struct{}
	stopJanitor       sync.Once
}

// New builds a daemon from cfg: the config is compiled into the first
// snapshot (every language loaded) and the shard pool is started. No
// sockets are opened until Start.
func New(cfg Config) (*Daemon, error) {
	sn, err := buildSnapshot(cfg, 1)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		pool:        newShardPool(sn.cfg.Shards, sn.cfg.QueueDepth),
		sessions:    newRegistry(),
		gov:         govern.New(sn.cfg.Shards),
		Logf:        log.Printf,
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	d.gov.SetWatermarks(sn.cfg.MemorySoftBytes, sn.cfg.MemoryHardBytes)
	d.pool.onWait = d.mets.queueWait.observe
	d.pool.onExpired = func() { d.mets.queueExpired.Add(1) }
	d.mets.configVersion.Store(1)
	d.snap.Store(sn)
	if d.persist, err = newPersistStore(sn.cfg.Persist); err != nil {
		return nil, err
	}
	if d.persist != nil {
		// Inventory what a previous process left behind: sessions restore
		// lazily on first touch, but the ID sequence must clear every
		// persisted ID now, or a new session could be issued one and
		// shadow (or be shadowed by) the artifacts on disk.
		floor, n := d.persist.scanSessions()
		d.sessions.floorSeq(floor)
		if n > 0 {
			d.Logf("daemon: %d persisted sessions available in %s", n, d.persist.dir)
		}
	}
	go d.janitor()
	return d, nil
}

// Snapshot returns the active configuration snapshot's config and version.
func (d *Daemon) Snapshot() (Config, int64) {
	sn := d.snap.Load()
	return sn.cfg, sn.version
}

// Reload swaps in a new configuration with zero downtime: the new config
// is compiled into a complete snapshot first (artifact directories
// re-read, bundled set re-resolved), and only a fully valid snapshot is
// published. Requests already running finish against the old snapshot;
// new sessions see the new budgets and languages; live sessions keep the
// language and budget they were created with. On error the active config
// is untouched.
//
// Reloads are serialized: concurrent callers (POST /config, POST /reload,
// SIGHUP) publish in version order, a later-accepted config always wins,
// and a rejected build consumes no version number.
//
// The shard pool is fixed at startup: a reload with a different Shards
// value keeps the running pool and reports the effective count in the
// active config.
func (d *Daemon) Reload(cfg Config) (int64, error) {
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()
	cur := d.snap.Load()
	version := cur.version + 1
	sn, err := buildSnapshot(cfg, version)
	if err != nil {
		d.mets.reloadErrors.Add(1)
		return cur.version, err
	}
	if sn.cfg.Shards != cur.cfg.Shards {
		d.Logf("daemon: shards fixed at %d until restart (config asked for %d)",
			cur.cfg.Shards, sn.cfg.Shards)
		sn.cfg.Shards = cur.cfg.Shards
	}
	if sn.cfg.Persist != cur.cfg.Persist {
		d.Logf("daemon: persistence fixed at startup (dir %q) until restart", cur.cfg.Persist.Dir)
		sn.cfg.Persist = cur.cfg.Persist
	}
	if sn.cfg.QueueDepth != cur.cfg.QueueDepth {
		d.Logf("daemon: queue depth fixed at %d until restart (config asked for %d)",
			cur.cfg.QueueDepth, sn.cfg.QueueDepth)
		sn.cfg.QueueDepth = cur.cfg.QueueDepth
	}
	// Listeners are bound once; keep the effective addresses visible.
	sn.cfg.Listen, sn.cfg.AdminListen = cur.cfg.Listen, cur.cfg.AdminListen
	d.gov.SetWatermarks(sn.cfg.MemorySoftBytes, sn.cfg.MemoryHardBytes)
	d.snap.Store(sn)
	d.mets.configVersion.Store(version)
	d.mets.reloads.Add(1)
	d.Logf("daemon: config v%d active (%d languages, ttl %v)",
		version, len(sn.langs), time.Duration(sn.cfg.SessionTTL))
	return version, nil
}

// Start opens the data-plane and admin-plane listeners and serves until
// Shutdown. It returns once both listeners are bound (so Addr/AdminAddr
// are valid), with serving continuing in background goroutines.
func (d *Daemon) Start() error {
	sn := d.snap.Load()
	dataLn, err := net.Listen("tcp", sn.cfg.Listen)
	if err != nil {
		return fmt.Errorf("daemon: data listener: %w", err)
	}
	adminLn, err := net.Listen("tcp", sn.cfg.AdminListen)
	if err != nil {
		dataLn.Close()
		return fmt.Errorf("daemon: admin listener: %w", err)
	}
	d.dataLn, d.adminLn = dataLn, adminLn

	// Publish the bound addresses (":0" resolves on bind) so /config
	// reports reality. Under reloadMu: this is a snapshot publication
	// like any other and must not clobber a concurrent Reload.
	d.reloadMu.Lock()
	bound := *d.snap.Load()
	bound.cfg.Listen = dataLn.Addr().String()
	bound.cfg.AdminListen = adminLn.Addr().String()
	d.snap.Store(&bound)
	d.reloadMu.Unlock()

	d.dataSrv = &http.Server{Handler: d.Handler()}
	d.adminSrv = &http.Server{Handler: d.AdminHandler()}
	go func() {
		if err := d.dataSrv.Serve(dataLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.Logf("daemon: data plane: %v", err)
		}
	}()
	go func() {
		if err := d.adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.Logf("daemon: admin plane: %v", err)
		}
	}()
	d.Logf("daemon: serving data on %s, admin on %s", bound.cfg.Listen, bound.cfg.AdminListen)
	return nil
}

// Addr returns the bound data-plane address (valid after Start).
func (d *Daemon) Addr() net.Addr { return d.dataLn.Addr() }

// AdminAddr returns the bound admin-plane address (valid after Start).
func (d *Daemon) AdminAddr() net.Addr { return d.adminLn.Addr() }

// Shutdown stops the daemon: listeners drain gracefully under ctx, the
// eviction janitor stops, and the shard pool exits once every in-flight
// task has finished. Safe to call whether or not Start was called, and
// safe to call more than once.
func (d *Daemon) Shutdown(ctx context.Context) error {
	var firstErr error
	for _, srv := range []*http.Server{d.dataSrv, d.adminSrv} {
		if srv == nil {
			continue
		}
		if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.stopJanitor.Do(func() { close(d.janitorStop) })
	<-d.janitorDone
	// Park every live session on disk (bounded by the drain deadline) so
	// a graceful restart restores each one without journal replay.
	d.persistAll(ctx)
	// srv.Shutdown can return early (drain deadline expired) with
	// handlers still in flight — say, wedged on a long unbudgeted parse.
	// pool.close excludes concurrent producers itself (a straggler gets
	// errPoolClosed instead of a send on a closed channel), but that same
	// exclusion means it can block behind a wedged enqueue, so bound it
	// by the drain deadline too and leave the pool running if it expires:
	// the process is exiting anyway.
	closed := make(chan struct{})
	go func() {
		d.pool.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-ctx.Done():
		if firstErr == nil {
			firstErr = ctx.Err()
		}
	}
	d.Logf("daemon: shut down (%d sessions open at exit)", d.sessions.len())
	return firstErr
}

// parkSession closes one session and releases its governor account. Runs
// on the session's shard goroutine, between requests: a request's task
// applies and parses its batch, so a session never waits here with work a
// shed request left behind. With persistence on, the session is parked on
// disk first (the next touch restores it); pressure is true for
// memory-pressure evictions, false for TTL ones (they count differently).
func (d *Daemon) parkSession(sess *session, when string, pressure bool) {
	toDisk := d.persistPark(sess, when)
	if d.closeSession(sess) {
		if pressure {
			d.mets.pressureEvictions.Add(1)
		} else {
			d.mets.sessionsEvicted.Add(1)
		}
		if toDisk {
			d.mets.evictedToDisk.Add(1)
		}
	}
}

// pressureIdleMin is the minimum idle time before a session is eligible
// for a pressure eviction: sweeps under memory pressure park idle-first,
// but never a session something touched in the last beat.
const pressureIdleMin = 100 * time.Millisecond

// relieveShard parks shard i's idle sessions, oldest-idle first, until
// the governor has at least need bytes of headroom (or the shard runs out
// of candidates). Runs on shard i's goroutine; protect (the session being
// grown) is never parked here. Only sessions with their state safely on
// disk are parked — without persistence, relief would destroy user state,
// so the governor sheds new work instead.
func (d *Daemon) relieveShard(i int, need int64, protect *session) {
	if d.persist == nil {
		return
	}
	cands := d.sessions.byShard(i)
	sort.Slice(cands, func(a, b int) bool { return cands[a].lastUsed.Before(cands[b].lastUsed) })
	for _, c := range cands {
		if hr, ok := d.gov.Headroom(); !ok || hr >= need {
			return
		}
		if c == protect || c.closed {
			continue
		}
		d.parkSession(c, "pressure", true)
	}
}

// accountParse settles a session's governor account after a parse: the
// footprint delta is charged (or released) against the shard. A charge the
// hard watermark refuses triggers relief — idle neighbors are parked to
// disk — and if the shard still cannot absorb the growth, the grown
// session itself is parked (persistence on) or dropped (persistence off):
// the response the client is about to get is still correct, and the next
// touch restores or recreates. Runs on the session's shard goroutine.
func (d *Daemon) accountParse(sess *session) {
	fp := sess.s.MemoryFootprint()
	delta := fp - sess.memBytes
	if delta <= 0 {
		d.gov.Adjust(sess.shard, delta)
		sess.memBytes = fp
		return
	}
	if d.gov.TryCharge(sess.shard, delta) {
		sess.memBytes = fp
		return
	}
	d.relieveShard(sess.shard, delta, sess)
	if d.gov.TryCharge(sess.shard, delta) {
		sess.memBytes = fp
		return
	}
	// The fleet cannot absorb this session's growth: shed it. Its old
	// account is released inside parkSession; the unaccounted growth
	// leaves the process with the session.
	d.Logf("daemon: session %s grew past the memory hard watermark (%d bytes), shedding", sess.id, fp)
	if d.persist != nil {
		d.parkSession(sess, "pressure", true)
		return
	}
	d.persistRemove(sess)
	if d.closeSession(sess) {
		d.mets.pressureEvictions.Add(1)
	}
}

// janitor periodically evicts idle sessions. Each sweep runs on the
// owning shard's goroutine, so it serializes with session operations and
// a session can never be evicted mid-parse. The TTL is read from the
// active snapshot every sweep, making it hot-reloadable. Under memory
// pressure (the governor at or above its soft watermark) the janitor
// additionally parks idle sessions to disk, oldest-idle first, until the
// fleet is back under the soft watermark.
func (d *Daemon) janitor() {
	defer close(d.janitorDone)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-d.janitorStop:
			return
		case <-tick.C:
		}
		ttl := time.Duration(d.snap.Load().cfg.SessionTTL)
		if ttl > 0 {
			cutoff := time.Now().Add(-ttl)
			for i := range d.pool.tasks {
				candidates := d.sessions.byShard(i)
				if len(candidates) == 0 {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				d.pool.run(ctx, i, func() {
					for _, sess := range candidates {
						if sess.closed || sess.lastUsed.After(cutoff) {
							continue
						}
						// Park the session on disk before dropping it: with
						// persistence on, eviction demotes to cold storage
						// (the next touch restores) instead of destroying.
						d.parkSession(sess, "evict", false)
					}
				})
				cancel()
			}
		}
		// Pressure mode: idle-first eviction to disk until under the soft
		// watermark. Only parked-safely sessions are eligible, so this
		// never destroys state (relieveShard enforces both).
		if d.gov.OverSoft() && d.persist != nil {
			cutoff := time.Now().Add(-pressureIdleMin)
			for i := range d.pool.tasks {
				if !d.gov.OverSoft() {
					break
				}
				candidates := d.sessions.byShard(i)
				if len(candidates) == 0 {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				d.pool.run(ctx, i, func() {
					sort.Slice(candidates, func(a, b int) bool {
						return candidates[a].lastUsed.Before(candidates[b].lastUsed)
					})
					for _, sess := range candidates {
						if !d.gov.OverSoft() {
							return
						}
						if sess.closed || sess.lastUsed.After(cutoff) {
							continue
						}
						d.parkSession(sess, "pressure", true)
					}
				})
				cancel()
			}
		}
	}
}
