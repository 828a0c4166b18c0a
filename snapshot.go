package incremental

import (
	"io"

	"iglr/internal/iglr"
	"iglr/internal/sesscodec"
)

// Session persistence: Snapshot serializes a session's document state —
// committed text, token stream, parse dag, and pending edits — as a
// versioned, checksummed .ccsess artifact, and RestoreSession rebuilds a
// session from one without lexing or parsing. The restored session is
// behaviorally identical to the original: same committed tree (byte-
// identical FormatDag), same Diagnostics, and the same outcome for any
// subsequent edit sequence. See DESIGN.md, "Durability & crash recovery".

// Sentinel restore failures, aliasing the sesscodec package's. All of them
// mean the artifact is unusable and the caller should parse from source;
// they are distinguished so services can count why.
var (
	// ErrSnapshotCorrupt reports a truncated, bit-flipped, or non-snapshot
	// input.
	ErrSnapshotCorrupt = sesscodec.ErrCorrupt
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = sesscodec.ErrVersion
	// ErrSnapshotLanguage reports a snapshot taken under a different
	// language definition (by content hash) than the one offered.
	ErrSnapshotLanguage = sesscodec.ErrLanguageMismatch
)

// SnapshotExt is the conventional snapshot file extension.
const SnapshotExt = sesscodec.FileExt

// Snapshot writes the session's current state to w as a .ccsess artifact.
// The session is not modified and stays fully usable; pending (uncommitted)
// edits are included and survive the round trip. Snapshot fails — writing
// nothing — if the session state cannot be captured consistently; callers
// treat that as "session not persistable" and keep it live.
func (s *Session) Snapshot(w io.Writer) error { return s.SnapshotTagged(w, 0) }

// SnapshotTagged is Snapshot with an opaque sequence tag stored in the
// artifact, returned by RestoreSessionTagged. Services that pair snapshots
// with a write-ahead journal use the tag to mark which journal records the
// snapshot already includes (the daemon's crash recovery skips them on
// replay). Plain Snapshot writes tag 0.
func (s *Session) SnapshotTagged(w io.Writer, tag uint64) error {
	data, err := s.marshalSnapshot(tag)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

func (s *Session) marshalSnapshot(tag uint64) ([]byte, error) {
	committed, toks, pending, err := s.doc.CommittedState()
	if err != nil {
		return nil, err
	}
	return sesscodec.Encode(sesscodec.State{
		Lang:    s.lang.def,
		Text:    committed,
		Toks:    toks,
		Root:    s.doc.Root(),
		Pending: pending,
		Det:     s.det != nil,
		Tag:     tag,
	})
}

// RestoreSession rebuilds a session from a .ccsess artifact written by
// Snapshot. lang must be the same language definition (by content hash)
// the snapshot was taken under; any other language is refused with
// ErrSnapshotLanguage. The committed tree is decoded — not reparsed — and
// pending edits are re-applied through the normal edit path, so the
// restored session is byte-identical in behavior to the one snapshotted:
// same FormatDag, same Diagnostics, same outcomes for subsequent edits.
//
// Options apply as in NewSession (WithBudget, WithTrace). Parse statistics
// and the deterministic/GLR parser choice are session runtime state:
// Stats() starts at zero, and the deterministic parser is re-activated
// automatically when the snapshotted session had it on.
//
// A corrupt, truncated, or version-skewed artifact fails with an error
// matching ErrSnapshotCorrupt / ErrSnapshotVersion — never a panic and
// never a silently wrong tree; every structural invariant is re-validated
// against lang's tables during decode.
func RestoreSession(r io.Reader, lang *Language, opts ...SessionOption) (*Session, error) {
	s, _, err := RestoreSessionTagged(r, lang, opts...)
	return s, err
}

// RestoreSessionTagged is RestoreSession returning the artifact's sequence
// tag (see SnapshotTagged).
func RestoreSessionTagged(r io.Reader, lang *Language, opts ...SessionOption) (*Session, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	return restoreSessionBytes(data, lang, opts...)
}

func restoreSessionBytes(data []byte, lang *Language, opts ...SessionOption) (*Session, uint64, error) {
	res, err := sesscodec.Decode(data, lang.def)
	if err != nil {
		return nil, 0, err
	}
	s := &Session{
		lang:   lang,
		parser: iglr.New(lang.def.Table),
	}
	for _, o := range opts {
		o(s)
	}
	s.doc = res.Doc
	if res.Det {
		if err := s.UseDeterministic(); err != nil {
			return nil, 0, err
		}
	}
	return s, res.Tag, nil
}
