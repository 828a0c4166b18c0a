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

// metrics is the daemon's instrumentation: plain atomic counters and
// gauges fed by the session/engine outcome structs, rendered in the
// Prometheus text exposition format at GET /metrics on the admin plane.
type metrics struct {
	configVersion atomic.Int64
	reloads       atomic.Int64
	reloadErrors  atomic.Int64

	sessionsOpen    atomic.Int64
	sessionsOpened  atomic.Int64
	sessionsClosed  atomic.Int64
	sessionsEvicted atomic.Int64
	sessionsDenied  atomic.Int64

	panics atomic.Int64

	edits        atomic.Int64
	parses       atomic.Int64
	parseErrors  atomic.Int64
	budgetTrips  atomic.Int64
	degraded     atomic.Int64
	isolated     atomic.Int64
	diagnostics  atomic.Int64
	parseLatency histogram

	// Overload protection: load shedding, queue behavior, stalled parses,
	// and pressure-mode eviction.
	shedQueueFull     atomic.Int64
	shedInflight      atomic.Int64
	shedMemory        atomic.Int64
	queueExpired      atomic.Int64
	watchdogCancels   atomic.Int64
	pressureEvictions atomic.Int64
	degradedAdmits    atomic.Int64
	queueWait         histogram

	batchRequests atomic.Int64
	batchFiles    atomic.Int64
	batchFailed   atomic.Int64

	restoreHits      atomic.Int64
	restoreMisses    atomic.Int64
	restoreDiverged  atomic.Int64
	evictedToDisk    atomic.Int64
	journalRecords   atomic.Int64
	journalReplayed  atomic.Int64
	journalTorn      atomic.Int64
	snapshotsWritten atomic.Int64
	persistErrors    atomic.Int64
}

// observeParse folds one session parse outcome into the counters.
func (m *metrics) observeParse(out *incremental.Outcome, dur time.Duration, diags int) {
	m.parses.Add(1)
	m.parseLatency.observe(dur)
	if out.Err != nil {
		if errors.Is(out.Err, incremental.ErrBudget) {
			m.budgetTrips.Add(1)
		} else {
			m.parseErrors.Add(1)
		}
	}
	if out.Isolated {
		m.isolated.Add(1)
	}
	if out.Stats.BudgetPruned > 0 {
		m.degraded.Add(1)
	}
	m.diagnostics.Add(int64(diags))
}

// write renders every metric. One writer, no registry: the inventory is
// small and fixed, and the daemon has no third-party metric dependencies.
func (m *metrics) write(w io.Writer) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	g("iglrd_config_version", "Version of the active config (bumps on every successful reload).", m.configVersion.Load())
	c("iglrd_config_reloads_total", "Successful config reloads.", m.reloads.Load())
	c("iglrd_config_reload_errors_total", "Rejected config reloads (active config unchanged).", m.reloadErrors.Load())

	g("iglrd_sessions_open", "Editing sessions currently open.", m.sessionsOpen.Load())
	c("iglrd_sessions_opened_total", "Sessions ever opened.", m.sessionsOpened.Load())
	c("iglrd_sessions_closed_total", "Sessions closed by the client.", m.sessionsClosed.Load())
	c("iglrd_sessions_evicted_total", "Sessions evicted after exceeding the idle TTL.", m.sessionsEvicted.Load())
	c("iglrd_sessions_denied_total", "Session creations denied by a quota.", m.sessionsDenied.Load())

	c("iglrd_recovered_panics_total", "Shard tasks that panicked and were recovered (the offending session is closed).", m.panics.Load())

	c("iglrd_edits_total", "Text edits applied across all sessions.", m.edits.Load())
	c("iglrd_parses_total", "Parses run (incremental and initial).", m.parses.Load())
	c("iglrd_parse_errors_total", "Parses that failed with a syntax error (non-tolerant sessions).", m.parseErrors.Load())
	c("iglrd_budget_trips_total", "Parses aborted by a resource budget.", m.budgetTrips.Load())
	c("iglrd_degraded_parses_total", "Parses that pruned ambiguity under the alternatives budget.", m.degraded.Load())
	c("iglrd_isolated_parses_total", "Tolerant parses that quarantined syntax errors (error isolation).", m.isolated.Load())
	c("iglrd_diagnostics_total", "Diagnostics reported across all parses.", m.diagnostics.Load())

	fmt.Fprintf(w, "# HELP iglrd_parse_seconds Parse latency, per session parse.\n# TYPE iglrd_parse_seconds histogram\n")
	m.parseLatency.write(w, "iglrd_parse_seconds")

	c("iglrd_shed_queue_full_total", "Requests shed with 429 because their shard's queue was full.", m.shedQueueFull.Load())
	c("iglrd_shed_inflight_total", "Requests shed with 429 by the global in-flight cap.", m.shedInflight.Load())
	c("iglrd_shed_memory_total", "Creations and restores shed with 503 by the memory hard watermark.", m.shedMemory.Load())
	c("iglrd_queue_expired_total", "Queued tasks dropped because their request deadline expired before a shard could run them.", m.queueExpired.Load())
	c("iglrd_watchdog_cancels_total", "Parses cancelled after running past stall_timeout (the session is closed).", m.watchdogCancels.Load())
	c("iglrd_pressure_evictions_total", "Sessions parked to disk by memory-pressure eviction (soft-watermark sweeps and hard-watermark relief).", m.pressureEvictions.Load())
	c("iglrd_degraded_admits_total", "Sessions admitted under the degraded pressure budget.", m.degradedAdmits.Load())

	fmt.Fprintf(w, "# HELP iglrd_queue_wait_seconds Time tasks spent waiting in a shard queue before running.\n# TYPE iglrd_queue_wait_seconds histogram\n")
	m.queueWait.write(w, "iglrd_queue_wait_seconds")

	c("iglrd_batch_requests_total", "One-shot POST /parse batch requests.", m.batchRequests.Load())
	c("iglrd_batch_files_total", "Files parsed by batch requests.", m.batchFiles.Load())
	c("iglrd_batch_failed_files_total", "Batch files that failed.", m.batchFailed.Load())

	c("iglrd_sessions_restored_total", "Sessions restored from disk on first touch after an eviction or restart.", m.restoreHits.Load())
	c("iglrd_session_restore_misses_total", "Restore attempts that fell back to 404 (missing, corrupt, or unreplayable artifacts).", m.restoreMisses.Load())
	c("iglrd_session_restores_diverged_total", "Restored sessions whose snapshot tree a cold parse did not reproduce; the text was kept and the tree is the cold parse's.", m.restoreDiverged.Load())
	c("iglrd_sessions_evicted_to_disk_total", "Idle evictions whose full session state was made durable first.", m.evictedToDisk.Load())
	c("iglrd_journal_records_total", "Write-ahead journal records appended (one per accepted edit batch).", m.journalRecords.Load())
	c("iglrd_journal_replayed_total", "Journal records replayed while restoring sessions.", m.journalReplayed.Load())
	c("iglrd_journal_torn_total", "Torn journal tails detected on restore (the crash-mid-append signature); the intact prefix was replayed.", m.journalTorn.Load())
	c("iglrd_snapshots_written_total", "Session snapshots written (first parse, journal rotation, eviction, shutdown).", m.snapshotsWritten.Load())
	c("iglrd_persist_errors_total", "Disk failures that disabled persistence for one session (the live session is unaffected).", m.persistErrors.Load())
}
