package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	incremental "iglr"
	"iglr/daemon"
	"iglr/daemon/client"
	"iglr/internal/corpus"
)

// The daemon_mix workload: an in-process iglrd (two shards, the bundled
// c-subset, persistence on, every other knob at its default) holding one
// session for each of dmEditors editors. One caller, over one keep-alive
// connection through daemon/client, sends the editors' requests in turn,
// each as soon as the last is answered (a closed loop). So requests never
// overlap, and the process's CPU time while one is in flight, client and
// server together, is that request's cost. The daemon also applies each
// editor's edits in the order the reference replays them.
//
// The traffic is an assumption, not a recording: no request mix, file
// size or session lifetime of real editors was measured or taken from a
// published source. The mix and the file size are the ones the benchmark
// was specified with before any of it ran.
const (
	dmEditors     = 8
	dmLines       = 2000
	dmWarmup      = 5 * dmEditors
	dmScriptPairs = 512
	dmLanguage    = "c-subset"
)

// Op kinds of the mix.
const (
	dmEdit = iota
	dmSubtree
	dmDiag
	dmCreate
)

// dmDeck is the mix, per 20 ops: 65% one-edit batches, 20% subtree
// queries, 10% diagnostics queries, and 5% closing the editor's session
// and creating a new one over its original text. Each editor deals its ops
// from its own shuffled deck, so every run sends the mix in the same
// proportions: with independent draws, the share of slow subtree reads
// varied from run to run and moved the percentiles with it.
var dmDeck = []int{
	dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit, dmEdit,
	dmSubtree, dmSubtree, dmSubtree, dmSubtree,
	dmDiag, dmDiag,
	dmCreate,
}

// dmEditor is one editor: its session ("" while it has none) and the
// edits the daemon accepted on that session, in order.
type dmEditor struct {
	id  string
	src string
	// pairs is the editor's edit script and next its position in the
	// script's edits, two per pair.
	pairs   [][2]corpus.Edit
	next    int
	applied []corpus.Edit
	rng     *rand.Rand
	// deck holds the op kinds still to be dealt from the current deck.
	deck []int
	// spots are the script's identifier offsets in text order, and cursor
	// the position in [0,1) of the last subtree query among them.
	spots  []int
	cursor float64
	// edits and created count the edits accepted and the sessions
	// created by ops over the whole run.
	edits, created int
}

// dmRec is one answered op.
type dmRec struct {
	kind        int
	shed        bool
	parseMicros int64
}

type dmRig struct {
	d           *daemon.Daemon
	dir         string
	base, admin string
	// tr carries the caller's one connection, and adminTr the /metrics
	// and /healthz scrapes.
	tr, adminTr *http.Transport
	hc          *http.Client
	cl          *client.Client
	editors     []*dmEditor
}

func setupDaemon(e *env) (*dmRig, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "iglrbench-daemon-")
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Config{
		Listen:      "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		Shards:      2,
		Bundled:     []string{dmLanguage},
		Persist:     daemon.Persist{Dir: dir},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.Logf = func(string, ...any) {}
	rig := &dmRig{d: d, dir: dir, tr: &http.Transport{MaxIdleConnsPerHost: 1}, adminTr: &http.Transport{}}
	rig.hc = &http.Client{Transport: rig.tr}
	if err := d.Start(); err != nil {
		rig.close()
		return nil, err
	}
	rig.base, rig.admin = "http://"+d.Addr().String(), "http://"+d.AdminAddr().String()
	rig.cl = client.New(rig.base, client.Options{NoRetry: true, HTTPClient: rig.hc})
	for k := 0; k < dmEditors; k++ {
		seed := e.seed*1000 + int64(k)
		src, _ := corpus.Generate(corpus.Spec{Name: "daemon", Lines: e.scaled(dmLines, 100), Lang: "c",
			AmbiguousPerKLoC: ambPerKLoC, Seed: seed})
		ed := &dmEditor{
			src:   src,
			pairs: corpus.SelfCancellingEdits(src, dmScriptPairs, seed+500),
			rng:   rand.New(rand.NewSource(seed)),
		}
		rig.editors = append(rig.editors, ed)
		if len(ed.pairs) == 0 {
			rig.close()
			return nil, fmt.Errorf("check edit script: no identifiers in daemon text %d", k)
		}
		for _, p := range ed.pairs {
			ed.spots = append(ed.spots, p[0].Offset)
		}
		sort.Ints(ed.spots)
		ed.cursor = ed.rng.Float64()
		rec, err := ed.create(ctx, rig.cl, e.tr, -1, -1)
		if err == nil && rec.shed {
			err = errors.New("create session: shed")
		}
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return rig, nil
}

// create opens a session over the editor's original text. The script
// resumes at the start of a pair, since the new session holds the
// original text.
func (ed *dmEditor) create(ctx context.Context, cl *client.Client, tr *tracer, sp, op int) (dmRec, error) {
	id := tr.begin("POST /sessions", "daemon", sp, op)
	s, err := cl.CreateSession(ctx, dmLanguage, ed.src, "", false)
	tr.end(id)
	if err != nil {
		if shed, _ := isShed(err); shed {
			return dmRec{kind: dmCreate, shed: true}, nil
		}
		return dmRec{}, fmt.Errorf("create session: %w", err)
	}
	if !s.Outcome.Clean || s.Outcome.TextLen != len(ed.src) {
		return dmRec{}, fmt.Errorf("check create: clean=%v text_len=%d, want a clean parse of %d bytes",
			s.Outcome.Clean, s.Outcome.TextLen, len(ed.src))
	}
	ed.id, ed.applied = s.ID, nil
	ed.next += ed.next % 2
	return dmRec{kind: dmCreate}, nil
}

// close stops the daemon and removes its persistence directory.
func (rig *dmRig) close() {
	rig.tr.CloseIdleConnections()
	rig.adminTr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rig.d.Shutdown(ctx)
	os.RemoveAll(rig.dir)
}

// isShed reports whether err is a load-shedding refusal, which counts as a
// failed op; any other error is a wrong answer and aborts the run. A
// parse_pending shed is an edit the daemon applied but did not reparse.
func isShed(err error) (shed, applied bool) {
	var se *client.StatusError
	if !errors.As(err, &se) || !se.Shed() {
		return false, false
	}
	return true, se.Code == "parse_pending"
}

// deal returns the kind of the editor's next op.
func (ed *dmEditor) deal() int {
	if len(ed.deck) == 0 {
		ed.deck = append(ed.deck, dmDeck...)
		ed.rng.Shuffle(len(ed.deck), func(i, j int) { ed.deck[i], ed.deck[j] = ed.deck[j], ed.deck[i] })
	}
	kind := ed.deck[len(ed.deck)-1]
	ed.deck = ed.deck[:len(ed.deck)-1]
	return kind
}

// doOp runs one op of the mix and checks its answer. An editor whose last
// create was shed has no session, and its next op creates one.
func (ed *dmEditor) doOp(ctx context.Context, cl *client.Client, tr *tracer, sp, op int) (dmRec, error) {
	src := ed.src
	kind := ed.deal()
	if ed.id != "" && kind == dmCreate {
		id := tr.begin("DELETE /sessions/{id}", "daemon", sp, op)
		err := cl.Close(ctx, ed.id)
		tr.end(id)
		if err != nil {
			if shed, _ := isShed(err); shed {
				return dmRec{kind: dmCreate, shed: true}, nil
			}
			return dmRec{}, fmt.Errorf("close session: %w", err)
		}
		ed.id = ""
	}
	if ed.id == "" {
		rec, err := ed.create(ctx, cl, tr, sp, op)
		if err == nil && !rec.shed {
			ed.created++
		}
		return rec, err
	}
	switch kind {
	case dmEdit:
		e := ed.pairs[(ed.next/2)%len(ed.pairs)][ed.next%2]
		id := tr.begin("POST /sessions/{id}/edits", "daemon", sp, op)
		out, err := cl.Edits(ctx, ed.id, []client.Edit{{Offset: e.Offset, Remove: e.Removed, Insert: e.Inserted}})
		tr.end(id)
		if err != nil {
			shed, applied := isShed(err)
			if applied {
				ed.applied = append(ed.applied, e)
				ed.next++
				ed.edits++
			}
			if !shed {
				return dmRec{}, fmt.Errorf("edit: %w", err)
			}
			return dmRec{kind: dmEdit, shed: true}, nil
		}
		ed.applied = append(ed.applied, e)
		ed.next++
		ed.edits++
		if !out.Clean || out.TextLen != len(src) {
			return dmRec{}, fmt.Errorf("check edit: clean=%v text_len=%d, want a clean parse of %d bytes",
				out.Clean, out.TextLen, len(src))
		}
		return dmRec{kind: dmEdit, parseMicros: out.ParseMicros}, nil
	case dmSubtree:
		// The node under the cursor: the subtree at an identifier.
		// Arbitrary spans split reads into two cost classes (those that
		// cross a top-level element boundary are covered by a long list
		// prefix with a large outline), and the tail sat between them. A
		// query costs more the deeper its identifier sits, so the cursor
		// steps through the file by the golden ratio rather than at
		// random: a run's queries then cover the file evenly.
		ed.cursor = math.Mod(ed.cursor+0.6180339887498949, 1)
		off, ln := ed.spots[int(ed.cursor*float64(len(ed.spots)))], 1
		id := tr.begin("GET /sessions/{id}/subtree", "daemon", sp, op)
		got, err := cl.Subtree(ctx, ed.id, off, ln)
		tr.end(id)
		if err != nil {
			if shed, _ := isShed(err); shed {
				return dmRec{kind: dmSubtree, shed: true}, nil
			}
			return dmRec{}, fmt.Errorf("subtree: %w", err)
		}
		gOff, _ := got["offset"].(float64)
		gLen, _ := got["length"].(float64)
		if int(gOff) > off || int(gOff+gLen) < off+ln {
			return dmRec{}, fmt.Errorf("check subtree: [%v,+%v) does not cover [%d,+%d)", gOff, gLen, off, ln)
		}
		return dmRec{kind: dmSubtree}, nil
	default:
		id := tr.begin("GET /sessions/{id}/diagnostics", "daemon", sp, op)
		got, err := cl.Diagnostics(ctx, ed.id)
		tr.end(id)
		if err != nil {
			if shed, _ := isShed(err); shed {
				return dmRec{kind: dmDiag, shed: true}, nil
			}
			return dmRec{}, fmt.Errorf("diagnostics: %w", err)
		}
		if ds, ok := got["diagnostics"].([]any); !ok || len(ds) != 0 {
			return dmRec{}, fmt.Errorf("check diagnostics: want none for a clean session, got %v", got["diagnostics"])
		}
		return dmRec{kind: dmDiag}, nil
	}
}

func runDaemonMix(e *env, r *result) error {
	ctx := context.Background()
	rig, err := setUp(r, func() (*dmRig, error) { return setupDaemon(e) }, (*dmRig).close)
	if err != nil {
		return err
	}
	defer rig.close()

	// The editors take turns, from the warm-up on.
	turn := 0
	for ; turn < dmWarmup; turn++ {
		if _, err := rig.editors[turn%dmEditors].doOp(ctx, rig.cl, nil, -1, -1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	m0, err := rig.scrape()
	if err != nil {
		return err
	}
	// edits ends up as the edits accepted in the timed phase, the ones the
	// journal counter's delta covers.
	edits := 0
	for _, ed := range rig.editors {
		edits -= ed.edits
	}
	var editLat, readLat, subtreeLat, createLat, overhead, parse []time.Duration
	r.startTimed()
	deadline := time.Now().Add(e.dur)
	for ; r.ops == 0 || time.Now().Before(deadline); turn++ {
		op := r.attempted
		r.attempted++
		sp := e.tr.begin("op", "loadgen", -1, op)
		t0 := startOp()
		rec, err := rig.editors[turn%dmEditors].doOp(ctx, rig.cl, e.tr, sp, op)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		if rec.shed {
			r.failed++
			r.pace()
			r.calibrate()
			continue
		}
		r.endOp(t0)
		r.pace()
		r.calibrate()
		r.ops++
		req := r.wall[len(r.wall)-1]
		switch rec.kind {
		case dmEdit:
			editLat = append(editLat, req)
			pm := time.Duration(rec.parseMicros) * time.Microsecond
			parse = append(parse, pm)
			overhead = append(overhead, req-pm)
		case dmSubtree:
			subtreeLat = append(subtreeLat, req)
			readLat = append(readLat, req)
		case dmDiag:
			readLat = append(readLat, req)
		case dmCreate:
			createLat = append(createLat, req)
		}
	}
	r.stopTimed()
	m1, err := rig.scrape()
	if err != nil {
		return err
	}
	health, err := rig.healthz()
	if err != nil {
		return err
	}

	created := 0
	for _, ed := range rig.editors {
		edits += ed.edits
		created += ed.created
	}
	if d := m1.delta(m0, "iglrd_persist_errors_total"); d != 0 {
		return fmt.Errorf("check persistence: %v persist errors", d)
	}
	r.set("daemon.edit_ms_p50", ms(pct(editLat, 0.5)), "ms")
	r.set("daemon.edit_ms_p99", ms(pct(editLat, 0.99)), "ms")
	r.set("daemon.read_ms_p50", ms(pct(readLat, 0.5)), "ms")
	r.set("daemon.read_ms_p99", ms(pct(readLat, 0.99)), "ms")
	r.set("daemon.subtree_ms_p50", ms(pct(subtreeLat, 0.5)), "ms")
	r.set("daemon.create_ms_p50", ms(pct(createLat, 0.5)), "ms")
	r.set("daemon.server_parse_us_p50", us(pct(parse, 0.5)), "us")
	r.set("daemon.overhead_us_p50", us(pct(overhead, 0.5)), "us")
	r.set("daemon.overhead_frac", ratio(float64(pct(overhead, 0.5)), float64(pct(editLat, 0.5))), "ratio")
	r.set("daemon.queue_wait_p99_ms", 1e3*m1.histQuantile(m0, "iglrd_queue_wait_seconds", 0.99), "ms")
	r.set("daemon.queue_wait_frac", ratio(m1.delta(m0, "iglrd_queue_wait_seconds_sum"), sumDur(r.wall).Seconds()), "ratio")
	r.set("daemon.shed_total", m1.deltaPrefix(m0, "iglrd_shed_"), "count")
	r.set("daemon.sessions_created", float64(created), "count")
	r.set("persist.journal_records_per_edit", ratio(m1.delta(m0, "iglrd_journal_records_total"), float64(edits)), "ratio")
	r.set("persist.errors", 0, "count")
	r.set("govern.memory_mb", health.MemoryBytes/(1<<20), "MB")
	r.set("govern.pressure_evictions", m1.delta(m0, "iglrd_pressure_evictions_total"), "count")
	return checkDaemonSessions(ctx, e, r, rig)
}

// checkDaemonSessions compares every session with a reference Session
// driven in process with the edits the daemon accepted: the text length and
// the subtree covering the whole text must agree.
func checkDaemonSessions(ctx context.Context, e *env, r *result, rig *dmRig) error {
	lang, ok := incremental.BundledLanguage(dmLanguage)
	if !ok {
		return fmt.Errorf("no bundled language %q", dmLanguage)
	}
	var (
		stats      incremental.ParseStats
		dos, relex int
		dag        incremental.DagStats
		bytes      int
	)
	for _, ed := range rig.editors {
		if ed.id == "" {
			continue // its last create was shed
		}
		id := e.tr.begin("NewSession", "document", -1, -1)
		ref := incremental.NewSession(lang, ed.src)
		e.tr.end(id)
		id = e.tr.begin("Session.Do(cold)", "iglr", -1, -1)
		out := ref.Do(ctx)
		e.tr.end(id)
		if !out.Clean {
			return fmt.Errorf("check reference: initial parse not clean: %v", out.Err)
		}
		for _, a := range ed.applied {
			id := e.tr.begin("Session.Edit", "document", -1, -1)
			ref.Edit(a.Offset, a.Removed, a.Inserted)
			e.tr.end(id)
			relex += ref.Relexed()
			id = e.tr.begin("Session.Do", "iglr", -1, -1)
			out := ref.Do(ctx)
			e.tr.end(id)
			if !out.Clean {
				return fmt.Errorf("check reference: replayed edit not clean: %v", out.Err)
			}
			addStats(&stats, out.Stats)
			dos++
		}

		textLen, err := sessionTextLen(rig.hc, rig.base, ed.id)
		if err != nil {
			return err
		}
		want := ref.Len()
		if e.tamper {
			want++
		}
		if textLen != want {
			return fmt.Errorf("check session %s: text_len %d, reference %d", ed.id, textLen, want)
		}
		root := ref.Tree()
		off, ln, _ := ref.NodeSpan(root)
		got, err := rig.cl.Subtree(ctx, ed.id, off, ln)
		if err != nil {
			return fmt.Errorf("check session %s: whole-text subtree: %w", ed.id, err)
		}
		n := ref.Subtree(off, ln)
		nOff, nLen, _ := ref.NodeSpan(n)
		gOff, _ := got["offset"].(float64)
		gLen, _ := got["length"].(float64)
		gSym, _ := got["symbol"].(string)
		gOutline, _ := got["outline"].(string)
		if gSym != lang.SymName(n.Sym) || int(gOff) != nOff || int(gLen) != nLen ||
			!sameOutline(gOutline, incremental.FormatDag(lang, n)) {
			return fmt.Errorf("check session %s: whole-text subtree %s [%v,+%v) differs from the reference's %s [%d,+%d)",
				ed.id, gSym, gOff, gLen, lang.SymName(n.Sym), nOff, nLen)
		}
		d := incremental.Measure(root)
		dag.DagNodes += d.DagNodes
		dag.TreeNodes += d.TreeNodes
		dag.AmbiguousRegions += d.AmbiguousRegions
		bytes += ref.Len()
	}
	r.set("document.relexed_tokens_per_edit", ratio(float64(relex), float64(dos)), "count")
	setIglrCounts(r, stats, dos)
	setDag(r, dag, bytes)
	if e.tr != nil {
		setCallTimes(r, "document", e.tr.durations("document", "Session.Edit"))
		setCallTimes(r, "iglr", e.tr.durations("iglr", "Session.Do"))
		r.set("document.build_ms", ms(medianDur(e.tr.durations("document", "NewSession"))), "ms")
		r.set("iglr.cold_parse_ms", ms(medianDur(e.tr.durations("iglr", "Session.Do(cold)"))), "ms")
	}
	return nil
}

// sameOutline compares the daemon's subtree outline with the reference's.
// The daemon caps long outlines and marks the cut; a capped outline must
// be a prefix of the reference's.
func sameOutline(daemonOutline, ref string) bool {
	const mark = "\n… (truncated)\n"
	if body, cut := strings.CutSuffix(daemonOutline, mark); cut {
		// The cap counts bytes, so it can split a multi-byte character,
		// which the JSON encoding then turns into U+FFFD.
		body = strings.TrimRight(body, "�")
		return len(body) < len(ref) && strings.HasPrefix(ref, body)
	}
	return daemonOutline == ref
}

// sessionTextLen reads a session's text length (GET /sessions/{id}, which
// the client package does not wrap).
func sessionTextLen(hc *http.Client, base, id string) (int, error) {
	resp, err := hc.Get(base + "/sessions/" + id)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /sessions/%s: status %d", id, resp.StatusCode)
	}
	var body struct {
		TextLen int `json:"text_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("GET /sessions/%s: %w", id, err)
	}
	return body.TextLen, nil
}

// promText is one scrape of the admin plane's /metrics: every sample line
// by its full name, labels included.
type promText map[string]float64

func (rig *dmRig) scrape() (promText, error) {
	url := rig.admin + "/metrics"
	resp, err := (&http.Client{Transport: rig.adminTr}).Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	m := promText{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

func (m promText) delta(before promText, name string) float64 { return m[name] - before[name] }

// deltaPrefix sums the deltas of every counter whose name starts with
// prefix.
func (m promText) deltaPrefix(before promText, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v - before[k]
		}
	}
	return s
}

// histQuantile is the upper bound of the histogram bucket holding the
// q-quantile of the observations made between two scrapes.
func (m promText) histQuantile(before promText, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		s, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(s, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := m.delta(before, name+"_count")
	for _, b := range bs {
		if total > 0 && b.n >= q*total {
			return b.le
		}
	}
	if len(bs) == 0 {
		return 0
	}
	return bs[len(bs)-1].le
}

type healthBody struct {
	MemoryBytes float64 `json:"memory_bytes"`
}

func (rig *dmRig) healthz() (healthBody, error) {
	var h healthBody
	url := rig.admin + "/healthz"
	resp, err := (&http.Client{Transport: rig.adminTr}).Get(url)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("%s: %w", url, err)
	}
	return h, nil
}
