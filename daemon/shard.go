package daemon

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	incremental "iglr"
)

// errShardPanic reports that a shard task panicked. The panic is recovered
// on the shard goroutine itself, so one poisoned request can never take
// down the daemon; the caller that submitted the task sees it as an error.
var errShardPanic = errors.New("daemon: shard task panicked")

// errPoolClosed reports a task submitted after Shutdown closed the pool.
var errPoolClosed = errors.New("daemon: shard pool shut down")

// errQueueFull reports a data-plane task refused because its shard's
// bounded queue is full — the load-shedding signal (429 + Retry-After at
// the HTTP layer). Only runQueued returns it; blocking control-plane
// submissions wait instead.
var errQueueFull = errors.New("daemon: shard queue full")

// errShardStalled reports a parse cancelled after it stalled beyond the
// configured stall_timeout — the cause of its context's timeout; the
// session is closed (the livelock extension of the panic-containment
// contract).
var errShardStalled = errors.New("daemon: parse stalled beyond stall_timeout; session closed")

// session is one live editing session. The incremental.Session inside is
// single-goroutine by contract, so every operation on it runs as a task on
// the owning shard's goroutine — fields below the comment are owned by
// that goroutine after publication and need no locks.
type session struct {
	id       string
	tenant   string
	langName string
	lang     *incremental.Language
	shard    int
	tolerant bool

	// Shard-goroutine-owned after the session is published.
	s        *incremental.Session
	lastUsed time.Time
	closed   bool
	// p is the session's durability state (nil until the persistence
	// layer adopts the session on its shard; always nil when persistence
	// is disabled). Shard-owned like the fields above.
	p *sessPersist
	// memBytes is the session's last accounted memory footprint, the
	// figure charged against the governor (internal/govern). Shard-owned;
	// written once before publication (creation/restore estimates).
	memBytes int64
}

// Task states. A task is born queued; exactly one of the worker (CAS
// queued→running at dequeue) and the abandoning submitter (CAS
// queued→abandoned on ctx expiry) wins the transition, so a closure whose
// submitter already returned can never run and race its response state.
const (
	taskQueued int32 = iota
	taskRunning
	taskAbandoned
)

// shardTask is one unit of work in a shard's bounded queue.
type shardTask struct {
	fn       func()
	ctx      context.Context
	enqueued time.Time
	state    atomic.Int32
	done     chan struct{}
	err      error // written before done closes; read after
}

// shardPool is the fixed set of worker goroutines sessions are routed
// over. Each shard is one goroutine draining a bounded task queue; a
// session's ID hash pins it to one shard for life, so its operations are
// totally ordered without a session lock — the paper's single-goroutine
// session contract scaled out by sharding instead of locking.
//
// The queues are the daemon's admission control: data-plane submissions
// (runQueued) shed with errQueueFull when a queue is full instead of
// piling up behind a slow parse, and the worker drops queued work whose
// request context expired while it waited (deadline-aware dequeue) — a
// client that already gave up must not cost a parse.
type shardPool struct {
	tasks []chan *shardTask
	wg    sync.WaitGroup

	// onWait observes the queue wait of each task actually run; onExpired
	// counts tasks dropped (worker side) or abandoned (submitter side)
	// because their context expired while queued. Both are set once,
	// before any submission.
	onWait    func(time.Duration)
	onExpired func()

	// mu excludes close from concurrent producers: submissions hold it
	// shared for the enqueue, close holds it exclusively to flip closed,
	// so a handler can never send on a closed task channel.
	mu     sync.RWMutex
	closed bool
}

func newShardPool(n, depth int) *shardPool {
	if depth < 1 {
		depth = 1
	}
	p := &shardPool{tasks: make([]chan *shardTask, n)}
	for i := range p.tasks {
		ch := make(chan *shardTask, depth)
		p.tasks[i] = ch
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range ch {
				if !t.state.CompareAndSwap(taskQueued, taskRunning) {
					continue // abandoned; its submitter already returned
				}
				if p.onWait != nil {
					p.onWait(time.Since(t.enqueued))
				}
				if t.ctx != nil && t.ctx.Err() != nil {
					// Deadline-aware dequeue: the client is gone, so the
					// work is dropped, not parsed.
					t.err = t.ctx.Err()
					if p.onExpired != nil {
						p.onExpired()
					}
					close(t.done)
					continue
				}
				t.run()
			}
		}()
	}
	return p
}

// run executes the task's closure on the worker, recovering panics into
// t.err (see errShardPanic).
func (t *shardTask) run() {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("%w: %v\n%s", errShardPanic, r, debug.Stack())
		}
	}()
	t.fn()
}

// indexFor pins a session ID to a shard.
func (p *shardPool) indexFor(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(p.tasks)))
}

// run executes fn on shard i and waits for it to finish: the blocking
// control-plane entry point (janitor, shutdown, session drops). The
// enqueue waits for queue space; if ctx expires first — or while the task
// is still queued — the task is abandoned and run returns ctx.Err()
// without fn having run. Once the worker has started fn, run always waits
// for it: the closure owns response state, so returning early would race.
// Long parses are interrupted through the context instead: session tasks
// thread ctx into Do, which polls it.
//
// A panic inside fn is recovered on the shard goroutine and reported as an
// error wrapping errShardPanic: the shard keeps serving other sessions.
func (p *shardPool) run(ctx context.Context, i int, fn func()) error {
	return p.submit(ctx, i, fn, true)
}

// runQueued is run for the data plane: a full shard queue sheds the task
// immediately with errQueueFull instead of waiting for space, so overload
// turns into fast 429s rather than unbounded queueing.
func (p *shardPool) runQueued(ctx context.Context, i int, fn func()) error {
	return p.submit(ctx, i, fn, false)
}

func (p *shardPool) submit(ctx context.Context, i int, fn func(), block bool) error {
	t := &shardTask{fn: fn, ctx: ctx, enqueued: time.Now(), done: make(chan struct{})}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return errPoolClosed
	}
	if block {
		select {
		case p.tasks[i] <- t:
			p.mu.RUnlock()
		case <-ctx.Done():
			p.mu.RUnlock()
			return ctx.Err()
		}
	} else {
		select {
		case p.tasks[i] <- t:
			p.mu.RUnlock()
		default:
			p.mu.RUnlock()
			return errQueueFull
		}
	}
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskQueued, taskAbandoned) {
			if p.onExpired != nil {
				p.onExpired()
			}
			return ctx.Err()
		}
		// The worker won the dequeue race: fn is running (or just ran) and
		// its closure owns response state, so wait it out.
		<-t.done
		return t.err
	}
}

// close shuts the pool down and waits for the workers to drain. Safe
// against concurrent run calls (stragglers get errPoolClosed) and
// idempotent; it can block behind a producer wedged mid-enqueue on a busy
// shard, so callers with a deadline should apply it themselves.
func (p *shardPool) close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		for _, ch := range p.tasks {
			close(ch)
		}
	}
	p.wg.Wait()
}

// registry tracks live sessions and per-tenant open counts. It guards only
// the maps — session state is shard-owned.
type registry struct {
	mu      sync.Mutex
	byID    map[string]*session
	perTen  map[string]int
	nextSeq uint64
}

func newRegistry() *registry {
	return &registry{byID: map[string]*session{}, perTen: map[string]int{}}
}

// reserveID issues a new session ID. The session it names is registered
// later, by add on the ID's shard; an ID whose session is never added is
// simply never used.
func (r *registry) reserveID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSeq++
	return fmt.Sprintf("s%08x", r.nextSeq)
}

// add registers sess under the global and tenant quotas (0 is unlimited)
// and counts it toward its tenant. It returns false when a quota is
// exhausted. A restore adds with no quotas: the session was admitted when
// it was created, and a restart must not strand a client's acknowledged
// session behind a 429.
func (r *registry) add(sess *session, globalMax, tenantMax int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if globalMax > 0 && len(r.byID) >= globalMax {
		return false
	}
	if tenantMax > 0 && r.perTen[sess.tenant] >= tenantMax {
		return false
	}
	r.byID[sess.id] = sess
	r.perTen[sess.tenant]++
	return true
}

// floorSeq raises the ID sequence to at least n, so IDs found on disk at
// startup (or restored later) are never reissued to new sessions.
func (r *registry) floorSeq(n uint64) {
	r.mu.Lock()
	if r.nextSeq < n {
		r.nextSeq = n
	}
	r.mu.Unlock()
}

func (r *registry) get(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[id]
	return s, ok
}

// remove unlinks a session; the caller must also mark it closed on its
// shard goroutine. Idempotent.
func (r *registry) remove(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	delete(r.byID, id)
	if r.perTen[s.tenant] > 1 {
		r.perTen[s.tenant]--
	} else {
		delete(r.perTen, s.tenant)
	}
	return s, true
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// byShard snapshots the sessions currently routed to shard i.
func (r *registry) byShard(i int) []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*session
	for _, s := range r.byID {
		if s.shard == i {
			out = append(out, s)
		}
	}
	return out
}
