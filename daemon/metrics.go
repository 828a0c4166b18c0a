package daemon

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	incremental "iglr"
)

// latencyBuckets are the parse-latency histogram upper bounds, in seconds.
// They span sub-100µs incremental reparses up to multi-second pathological
// batches; everything above the last bound lands in +Inf.
var latencyBuckets = [numLatencyBuckets]float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

const numLatencyBuckets = 14

// histogram is a fixed-bucket, lock-free latency histogram in the
// Prometheus cumulative exposition shape.
type histogram struct {
	counts   [numLatencyBuckets + 1]atomic.Int64 // +1 for +Inf
	count    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if secs <= latencyBuckets[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

func (h *histogram) write(w io.Writer, name string) {
	cum := int64(0)
	for i, bound := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// family is one row of the /metrics table: a family's type, name and help
// text, and how a scrape reads its samples. A row without read has one
// sample, the value each daemon keeps at the row's index in Daemon.mets.
type family struct {
	typ, name, help string
	read            func(d *Daemon, w io.Writer, name string)
}

// families is the table GET /metrics renders, in exposition order. The
// var block below fills it, row by row in declaration order.
var families []family

// def appends a row without read to the table and returns its index, the
// handle a call site bumps the row's value through: d.mets[mEdits].Add(1).
func def(typ, name, help string) int { return defRead(typ, name, help, nil) }

// defRead appends a row whose samples a scrape reads from their source.
func defRead(typ, name, help string, read func(d *Daemon, w io.Writer, name string)) int {
	families = append(families, family{typ, name, help, read})
	return len(families) - 1
}

// value is the read of a row whose one sample v reads.
func value(v func(d *Daemon) int64) func(*Daemon, io.Writer, string) {
	return func(d *Daemon, w io.Writer, name string) { fmt.Fprintf(w, "%s %d\n", name, v(d)) }
}

var (
	_             = defRead("gauge", "iglrd_config_version", "Version of the active config (bumps on every successful reload).", value(func(d *Daemon) int64 { return d.snap.Load().version }))
	mReloads      = def("counter", "iglrd_config_reloads_total", "Successful config reloads.")
	mReloadErrors = def("counter", "iglrd_config_reload_errors_total", "Rejected config reloads (active config unchanged).")

	_                = defRead("gauge", "iglrd_sessions_open", "Editing sessions currently open.", value(func(d *Daemon) int64 { return int64(d.sessions.len()) }))
	mSessionsOpened  = def("counter", "iglrd_sessions_opened_total", "Sessions ever opened.")
	mSessionsClosed  = def("counter", "iglrd_sessions_closed_total", "Sessions closed by the client.")
	mSessionsEvicted = def("counter", "iglrd_sessions_evicted_total", "Sessions evicted after exceeding the idle TTL.")
	mSessionsDenied  = def("counter", "iglrd_sessions_denied_total", "Session creations denied by a quota.")

	mPanics = def("counter", "iglrd_recovered_panics_total", "Shard tasks that panicked and were recovered (the offending session is closed).")

	mEdits       = def("counter", "iglrd_edits_total", "Text edits applied across all sessions.")
	mParses      = def("counter", "iglrd_parses_total", "Parses run (incremental and initial).")
	mParseErrors = def("counter", "iglrd_parse_errors_total", "Parses that failed with a syntax error (non-tolerant sessions).")
	mBudgetTrips = def("counter", "iglrd_budget_trips_total", "Parses aborted by a resource budget.")
	mDegraded    = def("counter", "iglrd_degraded_parses_total", "Parses that pruned ambiguity under the alternatives budget.")
	mIsolated    = def("counter", "iglrd_isolated_parses_total", "Tolerant parses that quarantined syntax errors (error isolation).")
	mDiagnostics = def("counter", "iglrd_diagnostics_total", "Diagnostics reported across all parses.")
	_            = defRead("histogram", "iglrd_parse_seconds", "Parse latency, per session parse.", func(d *Daemon, w io.Writer, name string) { d.parseLatency.write(w, name) })

	mShedQueueFull     = def("counter", "iglrd_shed_queue_full_total", "Requests shed with 429 because their shard's queue was full.")
	mShedInflight      = def("counter", "iglrd_shed_inflight_total", "Requests shed with 429 by the global in-flight cap.")
	mShedMemory        = def("counter", "iglrd_shed_memory_total", "Creations and restores shed with 503 by the memory hard watermark.")
	mQueueExpired      = def("counter", "iglrd_queue_expired_total", "Queued tasks dropped because their request deadline expired before a shard could run them.")
	mWatchdogCancels   = def("counter", "iglrd_watchdog_cancels_total", "Parses cancelled after running past stall_timeout (the session is closed).")
	mPressureEvictions = def("counter", "iglrd_pressure_evictions_total", "Sessions parked to disk by memory-pressure eviction (soft-watermark sweeps and hard-watermark relief).")
	mDegradedAdmits    = def("counter", "iglrd_degraded_admits_total", "Sessions admitted under the degraded pressure budget.")
	_                  = defRead("histogram", "iglrd_queue_wait_seconds", "Time tasks spent waiting in a shard queue before running.", func(d *Daemon, w io.Writer, name string) { d.queueWait.write(w, name) })
	mBatchRequests     = def("counter", "iglrd_batch_requests_total", "One-shot POST /parse batch requests.")
	mBatchFiles        = def("counter", "iglrd_batch_files_total", "Files parsed by batch requests.")
	mBatchFailed       = def("counter", "iglrd_batch_failed_files_total", "Batch files that failed.")
	mRestoreHits       = def("counter", "iglrd_sessions_restored_total", "Sessions restored from disk on first touch after an eviction or restart.")
	mRestoreMisses     = def("counter", "iglrd_session_restore_misses_total", "Restore attempts that fell back to 404 (missing, corrupt, or unreplayable artifacts).")
	mRestoreDiverged   = def("counter", "iglrd_session_restores_diverged_total", "Restored sessions whose snapshot tree a cold parse did not reproduce; the text was kept and the tree is the cold parse's.")
	mEvictedToDisk     = def("counter", "iglrd_sessions_evicted_to_disk_total", "Idle evictions whose full session state was made durable first.")
	mJournalRecords    = def("counter", "iglrd_journal_records_total", "Write-ahead journal records appended (one per accepted edit batch).")
	mJournalReplayed   = def("counter", "iglrd_journal_replayed_total", "Journal records replayed while restoring sessions.")
	mJournalTorn       = def("counter", "iglrd_journal_torn_total", "Torn journal tails detected on restore (the crash-mid-append signature); the intact prefix was replayed.")
	mSnapshotsWritten  = def("counter", "iglrd_snapshots_written_total", "Session snapshots written (first parse, journal rotation, eviction, shutdown).")
	mPersistErrors     = def("counter", "iglrd_persist_errors_total", "Disk failures that disabled persistence for one session (the live session is unaffected).")

	// The memory governor's gauges: the global account, the watermarks,
	// its state and the per-shard split.
	_ = defRead("gauge", "iglrd_memory_bytes", "Accounted live session bytes.", value(func(d *Daemon) int64 { return d.gov.Global() }))
	_ = defRead("gauge", "iglrd_memory_soft_bytes", "Soft (pressure) watermark; 0 = unset.", value(func(d *Daemon) int64 { soft, _ := d.gov.Watermarks(); return soft }))
	_ = defRead("gauge", "iglrd_memory_hard_bytes", "Hard (refusal) watermark; 0 = unset.", value(func(d *Daemon) int64 { _, hard := d.gov.Watermarks(); return hard }))
	_ = defRead("gauge", "iglrd_memory_state", "Governor state: 0 normal, 1 pressure, 2 critical.", value(func(d *Daemon) int64 { return int64(d.gov.State()) }))
	_ = defRead("gauge", "iglrd_shard_memory_bytes", "Accounted live bytes per shard.", func(d *Daemon, w io.Writer, name string) {
		for i := 0; i < d.gov.Shards(); i++ {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, d.gov.Shard(i))
		}
	})
	_ = defRead("gauge", "iglrd_inflight_requests", "Data-plane requests currently executing.", value(func(d *Daemon) int64 { return d.inflight.Load() }))
)

// writeMetrics renders the table in the Prometheus text exposition format.
func (d *Daemon) writeMetrics(w io.Writer) {
	for i, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.read != nil {
			f.read(d, w, f.name)
		} else {
			fmt.Fprintf(w, "%s %d\n", f.name, d.mets[i].Load())
		}
	}
}

// observeParse folds one session parse outcome into the counters.
func (d *Daemon) observeParse(out *incremental.Outcome, dur time.Duration, diags int) {
	d.mets[mParses].Add(1)
	d.parseLatency.observe(dur)
	if out.Err != nil {
		if errors.Is(out.Err, incremental.ErrBudget) {
			d.mets[mBudgetTrips].Add(1)
		} else {
			d.mets[mParseErrors].Add(1)
		}
	}
	if out.Isolated {
		d.mets[mIsolated].Add(1)
	}
	if out.Stats.BudgetPruned > 0 {
		d.mets[mDegraded].Add(1)
	}
	d.mets[mDiagnostics].Add(int64(diags))
}
