package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	incremental "iglr"
	"iglr/internal/faultinject"
	"iglr/internal/sesscodec"
)

// Session durability. When Config.Persist.Dir is set, every session is
// continuously persisted as three files named by its ID:
//
//	<id>.json    immutable metadata (language name, tenant, tolerance)
//	<id>.ccsess  the last snapshot artifact (incremental.Snapshot), tagged
//	             with the journal sequence it covers
//	<id>.wal     the write-ahead edit journal since that snapshot
//
// The protocol is journal-before-apply: an accepted edit batch is framed,
// appended, and fsynced before the first edit touches the document, so any
// state a client has seen acknowledged is on disk. Snapshots are written
// with temp-file-plus-rename (never a partial artifact under the final
// name) and carry the sequence of the last journal record they include;
// replay after a crash skips covered records, which makes the journal
// truncation that follows a snapshot an optimization rather than a
// correctness requirement.
//
// Every disk failure degrades, never corrupts: a persist error disables
// persistence for that one session and deletes its artifacts (a client may
// have to re-create it after a restart — stale-and-absent, never wrong),
// and an unreadable artifact at restore time is removed and reported as a
// 404. The daemon never fails to start because of persistence state.

// defaultJournalMaxBytes is the snapshot-rotation threshold when the
// config does not set one.
const defaultJournalMaxBytes = 256 << 10

// persistStore is the daemon-wide durability configuration: the directory
// and the journal rotation threshold. Per-session state lives in
// sessPersist on the session's shard.
type persistStore struct {
	dir        string
	journalMax int64
}

// newPersistStore builds the store, creating the directory; nil when
// persistence is disabled.
func newPersistStore(p Persist) (*persistStore, error) {
	if p.Dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: persist dir: %w", err)
	}
	max := p.JournalMaxBytes
	if max <= 0 {
		max = defaultJournalMaxBytes
	}
	return &persistStore{dir: p.Dir, journalMax: max}, nil
}

func (ps *persistStore) metaPath(id string) string { return filepath.Join(ps.dir, id+".json") }
func (ps *persistStore) snapPath(id string) string {
	return filepath.Join(ps.dir, id+sesscodec.FileExt)
}
func (ps *persistStore) walPath(id string) string { return filepath.Join(ps.dir, id+".wal") }

// removeArtifacts deletes all of a session's files, best-effort, and
// reports whether the session's meta record was there to delete.
func (ps *persistStore) removeArtifacts(id string) bool {
	os.Remove(ps.walPath(id))
	os.Remove(ps.snapPath(id))
	return os.Remove(ps.metaPath(id)) == nil
}

// writeFileAtomic writes data under path via temp-file-plus-rename, so a
// reader (or a crash) never observes a partial file. When sync is set the
// data is fsynced before the rename and the directory after it, making the
// replacement durable, not just atomic.
func (ps *persistStore) writeFileAtomic(path string, data []byte, sync bool) error {
	f, err := os.CreateTemp(ps.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := persistFault(faultinject.PersistSync, path); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		if dir, err := os.Open(ps.dir); err == nil {
			dir.Sync()
			dir.Close()
		}
	}
	return nil
}

// scanSessions inventories the directory at startup: the highest numeric
// session ID on disk (the registry's ID floor, so restarted daemons never
// reissue a persisted ID to a new session) and how many session meta
// records exist.
func (ps *persistStore) scanSessions() (floor uint64, count int) {
	entries, err := os.ReadDir(ps.dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		n, ok := sessionSeqFromID(id)
		if !ok {
			continue
		}
		count++
		if n > floor {
			floor = n
		}
	}
	return floor, count
}

// validSessionID reports whether id has the registry's "s%08x" shape.
// Restore paths derive file names from request-supplied IDs; anything
// else (path separators, dots) must never reach the filesystem.
func validSessionID(id string) bool {
	if len(id) != 9 || id[0] != 's' {
		return false
	}
	for i := 1; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// sessionSeqFromID recovers the numeric sequence from a session ID.
func sessionSeqFromID(id string) (uint64, bool) {
	if !validSessionID(id) {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// sessPersist is one session's durability state. Shard-goroutine-owned,
// like the session fields it sits next to.
type sessPersist struct {
	store *persistStore
	// wal is the open journal: opened when the session is adopted or
	// restored; nil once the session is parked or persistence breaks.
	wal      *os.File
	walBytes int64
	// seq is the sequence of the last journaled record; snapSeq is the
	// sequence the on-disk snapshot covers. seq == snapSeq means the
	// snapshot alone is complete.
	seq      uint64
	snapSeq  uint64
	haveSnap bool
	// broken latches a disk failure: persistence is off for this session,
	// its artifacts are gone, and the live session carries on.
	broken bool
}

// sessionMetaJSON is the immutable per-session metadata record. Budget is
// the budget the session was admitted under — its tenant's, or the
// pressure budget — which a restore keeps, as a live session does: the
// restore reparses the snapshot's text, and only the budget that parsed it
// prunes the same ambiguous regions.
type sessionMetaJSON struct {
	Language string             `json:"language"`
	Tenant   string             `json:"tenant,omitempty"`
	Tolerant bool               `json:"tolerant,omitempty"`
	Budget   incremental.Budget `json:"budget"`
}

// persistFault consults the fault-injection plan for the persistence
// layer's points, turning ActError into an injected disk error and
// honoring ActDelay as slow disk I/O (the overload harness stalls parks
// this way to pile work up behind a shard).
func persistFault(p faultinject.Point, detail string) error {
	if !faultinject.Enabled() {
		return nil
	}
	switch act, sleep := faultinject.FireTimed(p, detail); act {
	case faultinject.ActError:
		return fmt.Errorf("faultinject: injected %s failure", p)
	case faultinject.ActDelay:
		time.Sleep(sleep)
	}
	return nil
}

// ---- shard-side operations ----------------------------------------------
//
// Everything below that touches a *session runs on its shard goroutine.

// persistFail disables persistence for sess after a disk failure and
// removes its artifacts: a half-durable session must never be restored
// stale after a restart. The live session is unaffected.
func (d *Daemon) persistFail(sess *session, op string, err error) {
	p := sess.p
	if p == nil || p.broken {
		return
	}
	p.broken = true
	d.mets[mPersistErrors].Add(1)
	d.Logf("daemon: session %s persistence disabled (%s: %v)", sess.id, op, err)
	if p.wal != nil {
		p.wal.Close()
		p.wal = nil
	}
	p.store.removeArtifacts(sess.id)
}

// persistAfterParse runs after every successful shard parse: it adopts a
// new session into the persistence layer (meta record, open journal and
// first snapshot) and rolls an oversized journal into a fresh snapshot.
// Creating the journal here keeps the file creation, which costs several
// times an append, off the session's first edit.
func (d *Daemon) persistAfterParse(sess *session) {
	if d.persist == nil {
		return
	}
	if sess.p == nil {
		sess.p = &sessPersist{store: d.persist}
		meta, err := json.Marshal(sessionMetaJSON{
			Language: sess.langName, Tenant: sess.tenant, Tolerant: sess.tolerant,
			Budget: sess.s.BudgetLimits(),
		})
		if err == nil {
			err = d.persist.writeFileAtomic(d.persist.metaPath(sess.id), meta, true)
		}
		if err != nil {
			d.persistFail(sess, "meta", err)
			return
		}
		if err := sess.p.openJournal(sess.id); err != nil {
			d.persistFail(sess, "journal open", err)
			return
		}
	}
	p := sess.p
	if p.broken || (p.haveSnap && p.walBytes < p.store.journalMax) {
		return
	}
	if err := d.writeSnapshot(sess); err != nil {
		d.persistFail(sess, "snapshot", err)
	}
}

// persistAppend journals an accepted edit batch. Called after validation
// and before the first edit is applied: once applied, the client may see
// state the disk does not have. A failure degrades persistence for the
// session; the edits are still applied.
func (d *Daemon) persistAppend(sess *session, edits []editJSON) {
	p := sess.p
	if p == nil || p.broken {
		return
	}
	if err := d.appendRecord(sess, edits); err != nil {
		d.persistFail(sess, "journal append", err)
	}
}

// openJournal opens (creating it if needed) session id's journal for
// appending.
func (p *sessPersist) openJournal(id string) error {
	f, err := os.OpenFile(p.store.walPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	p.wal = f
	return nil
}

func (d *Daemon) appendRecord(sess *session, edits []editJSON) error {
	p := sess.p
	rec := sesscodec.JournalRecord{Seq: p.seq + 1, Edits: make([]sesscodec.JournalEdit, len(edits))}
	for i, e := range edits {
		rec.Edits[i] = sesscodec.JournalEdit(e)
	}
	frame := sesscodec.AppendJournalRecord(nil, rec)
	if err := persistFault(faultinject.PersistAppend, sess.id); err != nil {
		return err
	}
	if _, err := p.wal.Write(frame); err != nil {
		return err
	}
	if err := persistFault(faultinject.PersistSync, sess.id); err != nil {
		return err
	}
	if err := p.wal.Sync(); err != nil {
		return err
	}
	p.seq = rec.Seq
	p.walBytes += int64(len(frame))
	d.mets[mJournalRecords].Add(1)
	return nil
}

// writeSnapshot captures sess's full state (committed tree, pending
// edits) as the session's snapshot artifact, tagged with the journal
// sequence it covers, then truncates the now-covered journal.
func (d *Daemon) writeSnapshot(sess *session) error {
	p := sess.p
	if err := persistFault(faultinject.PersistSnapshot, sess.id); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sess.s.SnapshotTagged(&buf, p.seq); err != nil {
		return err
	}
	if err := p.store.writeFileAtomic(p.store.snapPath(sess.id), buf.Bytes(), true); err != nil {
		return err
	}
	p.haveSnap = true
	p.snapSeq = p.seq
	d.mets[mSnapshotsWritten].Add(1)
	// The snapshot covers every journaled record, so dropping the journal
	// is an optimization; a crash between the rename above and the
	// truncate below double-applies nothing (replay skips by sequence).
	if err := p.wal.Truncate(0); err == nil {
		p.walBytes = 0
	}
	return nil
}

// persistPark makes sess fully durable and releases its file handles, so
// the in-memory session can be dropped (idle eviction, shutdown) and
// restored later. Reports whether the state is safely on disk.
func (d *Daemon) persistPark(sess *session, when string) bool {
	p := sess.p
	if p == nil || p.broken {
		return false
	}
	if !p.haveSnap || p.snapSeq != p.seq {
		if err := d.writeSnapshot(sess); err != nil {
			d.persistFail(sess, when+" snapshot", err)
			return false
		}
	}
	p.wal.Close()
	p.wal = nil
	return true
}

// persistRemove deletes sess's artifacts (client DELETE, panic
// containment): an explicitly closed or poisoned session must not
// resurrect after a restart.
func (d *Daemon) persistRemove(sess *session) {
	p := sess.p
	if p == nil {
		return
	}
	if p.wal != nil {
		p.wal.Close()
		p.wal = nil
	}
	if !p.broken {
		p.store.removeArtifacts(sess.id)
		p.broken = true
	}
}

// ---- restore -------------------------------------------------------------

// restoreSession rebuilds session id from its on-disk artifacts: snapshot
// load, then replay of every journal record the snapshot does not cover
// through applyAndParse, the path live edits take. A snapshot whose tree
// the restore's parse does not reproduce still restores, with the cold
// parse's tree (counted as diverged). Any unusable state fails the
// restore, removes the artifacts, and reports a miss — the caller 404s and
// the client re-creates the session from source. shed is true when the
// rebuilt session's footprint would push the memory governor past its hard
// watermark: the artifacts stay intact and the caller 503s with a retry
// hint instead of 404ing. Runs in a request's task on the ID's shard (see
// runSession), so the shard is busy for one cold parse plus the replay.
func (d *Daemon) restoreSession(id string) (sess *session, shed bool) {
	ps := d.persist
	seqID, ok := sessionSeqFromID(id)
	if !ok {
		return nil, false
	}
	metaRaw, err := os.ReadFile(ps.metaPath(id))
	if err != nil {
		return nil, false // never persisted: a plain 404, not a miss
	}
	var meta sessionMetaJSON
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		d.restoreFailed(id, "meta", err)
		return nil, false
	}
	sn := d.snap.Load()
	lang, ok := sn.langs[meta.Language]
	if !ok {
		// Not an artifact problem: the language left the config. Keep the
		// files — a reload may bring it back.
		d.mets[mRestoreMisses].Add(1)
		d.Logf("daemon: session %s not restored: language %q not in active config", id, meta.Language)
		return nil, false
	}
	snapRaw, err := os.ReadFile(ps.snapPath(id))
	if err != nil {
		d.restoreFailed(id, "snapshot", err)
		return nil, false
	}
	s, tag, err := incremental.RestoreSessionTagged(bytes.NewReader(snapRaw), lang,
		incremental.WithBudget(meta.Budget))
	diverged := errors.Is(err, incremental.ErrSnapshotDiverged)
	if diverged {
		// The text and pending edits are intact, so nothing acknowledged
		// is lost; only the tree is the cold parse's, not the live one's.
		// The session counts as unsnapshotted, so its next park or parse
		// writes a snapshot of the tree it now serves.
		d.mets[mRestoreDiverged].Add(1)
		d.Logf("daemon: session %s restored with a reparsed tree: %v", id, err)
		err = nil
	}
	if err != nil {
		d.restoreFailed(id, "snapshot decode", err)
		return nil, false
	}
	sess = &session{
		id:       id,
		tenant:   meta.Tenant,
		langName: meta.Language,
		lang:     lang,
		shard:    d.pool.indexFor(id),
		tolerant: meta.Tolerant,
		s:        s,
		lastUsed: time.Now(),
	}

	seq := tag
	walBytes := int64(0)
	if walRaw, err := os.ReadFile(ps.walPath(id)); err == nil && len(walRaw) > 0 {
		recs, torn := sesscodec.DecodeJournal(walRaw)
		for _, rec := range recs {
			if rec.Seq <= tag {
				continue // already inside the snapshot
			}
			// A parse outcome error (syntax error, budget trip) is data, as
			// it was live; only a batch that no longer fits fails the
			// replay. Like the snapshot's cold parse, replay takes no
			// deadline: a restore finishes or fails whole.
			edits := make([]editJSON, len(rec.Edits))
			for i, e := range rec.Edits {
				edits[i] = editJSON(e)
			}
			if _, _, err := d.applyAndParse(context.Background(), sess, edits, 0); err != nil {
				d.restoreFailed(id, "journal replay", fmt.Errorf("record %d: %w", rec.Seq, err))
				return nil, false
			}
			seq = rec.Seq
			d.mets[mJournalReplayed].Add(1)
		}
		if torn {
			// The crash-mid-append signature: everything before the torn
			// tail was fsynced and is now replayed. Cut the tail off so
			// future appends extend an intact journal; the framing is
			// canonical, so re-encoding the intact records gives the exact
			// intact prefix length.
			d.mets[mJournalTorn].Add(1)
			var intact []byte
			for _, rec := range recs {
				intact = sesscodec.AppendJournalRecord(intact, rec)
			}
			if err := os.Truncate(ps.walPath(id), int64(len(intact))); err != nil {
				d.restoreFailed(id, "journal truncate", err)
				return nil, false
			}
			walBytes = int64(len(intact))
		} else {
			walBytes = int64(len(walRaw))
		}
	}

	// Reviving the session adds its full footprint back to the fleet; a
	// charge the hard watermark refuses keeps it parked (shed, not lost).
	fp := s.MemoryFootprint()
	if !d.gov.TryCharge(sess.shard, fp) {
		return nil, true
	}
	sess.memBytes = fp
	sess.p = &sessPersist{
		store: ps, walBytes: walBytes, seq: seq, snapSeq: tag, haveSnap: !diverged,
	}
	if err := sess.p.openJournal(id); err != nil {
		d.persistFail(sess, "journal open", err)
	}
	d.sessions.floorSeq(seqID)
	d.sessions.add(sess, 0, 0)
	d.mets[mRestoreHits].Add(1)
	d.Logf("daemon: session %s restored from disk (%s, seq %d)", id, meta.Language, seq)
	return sess, false
}

// restoreFailed counts a failed restore and removes the artifacts so the
// unusable state is never retried: the client sees a 404 and re-creates
// the session from source — absent, never wrong.
func (d *Daemon) restoreFailed(id, op string, err error) {
	d.mets[mRestoreMisses].Add(1)
	d.Logf("daemon: session %s restore failed (%s), falling back: %v", id, op, err)
	d.persist.removeArtifacts(id)
}
