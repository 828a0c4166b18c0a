package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
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
	// mets holds the value of each /metrics table row without a read
	// (see families), at the row's index.
	mets                    []atomic.Int64
	parseLatency, queueWait histogram
	pool                    *shardPool
	sessions                *registry
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
		mets:        make([]atomic.Int64, len(families)),
		pool:        newShardPool(sn.cfg.Shards, sn.cfg.QueueDepth),
		sessions:    newRegistry(),
		gov:         govern.New(sn.cfg.Shards),
		Logf:        log.Printf,
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	d.gov.SetWatermarks(sn.cfg.MemorySoftBytes, sn.cfg.MemoryHardBytes)
	d.pool.onWait = d.queueWait.observe
	d.pool.onExpired = func() { d.mets[mQueueExpired].Add(1) }
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
		d.mets[mReloadErrors].Add(1)
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
	d.mets[mReloads].Add(1)
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
	// Park every live session on disk (bounded by the drain deadline; see
	// sweep) so a graceful restart restores each one without journal
	// replay. A request still queued behind the park restores its session,
	// as it would after an eviction.
	if d.persist != nil {
		d.sweep(ctx, 0, "shutdown", never)
	}
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
// disk first (the next touch restores it). why is the reason, which picks
// the counter: "evict" for the idle TTL, "pressure" for memory pressure;
// "shutdown" counts nowhere and closes only a session whose state reached
// disk.
func (d *Daemon) parkSession(sess *session, why string) {
	toDisk := d.persistPark(sess, why)
	if (why == "shutdown" && !toDisk) || !d.closeSession(sess) {
		return
	}
	switch why {
	case "evict":
		d.mets[mSessionsEvicted].Add(1)
	case "pressure":
		d.mets[mPressureEvictions].Add(1)
	default:
		return
	}
	if toDisk {
		d.mets[mEvictedToDisk].Add(1)
	}
}

// pressureIdleMin is the minimum idle time before a session is eligible
// for a pressure sweep: sweeps under memory pressure park idle-first, but
// never a session something touched in the last beat.
const pressureIdleMin = 100 * time.Millisecond

// parkIdle is the one park sweep: it parks the sessions of cands, all of
// one shard, oldest-idle first until done holds, leaving alone keep and
// every session used in the last minIdle. Runs on the shard's goroutine.
// The janitor's TTL and pressure sweeps and shutdown reach it through
// sweep; hard-watermark relief (accountParse) calls it on its own shard.
func (d *Daemon) parkIdle(cands []*session, minIdle time.Duration, keep *session, why string, done func() bool) {
	cutoff := time.Now().Add(-minIdle)
	slices.SortFunc(cands, func(a, b *session) int { return a.lastUsed.Compare(b.lastUsed) })
	for _, sess := range cands {
		if done() {
			return
		}
		if sess != keep && !sess.closed && !sess.lastUsed.After(cutoff) {
			d.parkSession(sess, why)
		}
	}
}

// sweep runs parkIdle on every shard that has sessions, one task each,
// until done holds. Each task waits at most a second for its shard, so a
// wedged shard holds up the others no longer than that.
func (d *Daemon) sweep(ctx context.Context, minIdle time.Duration, why string, done func() bool) {
	for i := range d.pool.tasks {
		if done() {
			return
		}
		if cands := d.sessions.byShard(i); len(cands) > 0 {
			shardCtx, cancel := context.WithTimeout(ctx, time.Second)
			d.pool.run(shardCtx, i, func() { d.parkIdle(cands, minIdle, nil, why, done) })
			cancel()
		}
	}
}

// never is the stop rule of a sweep that parks every session it may.
func never() bool { return false }

// accountParse settles a session's governor account after a parse: the
// footprint delta is charged (or released) against the shard. A charge the
// hard watermark refuses triggers relief: with persistence on, idle
// neighbors are parked to disk until the growth fits (without it, parking
// would destroy their state). If the shard still cannot absorb the growth,
// the grown session itself is parked (persistence on) or dropped
// (persistence off): the response the client is about to get is still
// correct, and the next touch restores or recreates. Runs on the session's
// shard goroutine.
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
	if d.persist != nil {
		d.parkIdle(d.sessions.byShard(sess.shard), 0, sess, "pressure", func() bool {
			hr, ok := d.gov.Headroom()
			return !ok || hr >= delta
		})
	}
	if d.gov.TryCharge(sess.shard, delta) {
		sess.memBytes = fp
		return
	}
	// The fleet cannot absorb this session's growth: shed it. Its old
	// account is released inside parkSession; the unaccounted growth
	// leaves the process with the session.
	d.Logf("daemon: session %s grew past the memory hard watermark (%d bytes), shedding", sess.id, fp)
	d.parkSession(sess, "pressure")
}

// janitor parks idle sessions every 250 ms: each session idle past the
// TTL, which it reads from the active snapshot every sweep, making it
// hot-reloadable; and under memory pressure (the governor at or above its
// soft watermark), with persistence on, idle sessions oldest-idle first
// until the fleet is back under the soft watermark. The sweeps run on the
// owning shards' goroutines, so they serialize with session operations and
// a session can never be parked mid-parse.
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
		if ttl := time.Duration(d.snap.Load().cfg.SessionTTL); ttl > 0 {
			d.sweep(context.Background(), ttl, "evict", never)
		}
		if d.persist != nil {
			d.sweep(context.Background(), pressureIdleMin, "pressure", func() bool { return !d.gov.OverSoft() })
		}
	}
}
