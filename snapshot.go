package incremental

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"iglr/internal/dag"
	"iglr/internal/isolate"
	"iglr/internal/sesscodec"
)

// Session persistence: Snapshot serializes what a parse of a session's
// text cannot recompute — the committed text, the pending edits, and the
// committed tree's history residue (isolated error regions, and the choice
// nodes a semantic filter marked) — plus a fingerprint of the tree's
// structure and budget prunes, as a versioned, checksummed .ccsess
// artifact. RestoreSession reparses the committed text, re-applies the
// residue and checks the parse against the fingerprint. A cold parse
// commits the same tree an incremental one does (the incremental ≡ batch
// oracles), so the restored session is normally identical to the
// original: same committed tree (byte-identical FormatDag), same
// Diagnostics, and the same outcome for any subsequent edit sequence.
// Where the live tree is not the cold parse of its text, the restore says
// so (ErrSnapshotDiverged) and keeps the text. See DESIGN.md, "Durability
// & crash recovery".

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

// ErrSnapshotDiverged reports an intact snapshot whose committed tree the
// restore's parse does not reproduce: the parse has another fingerprint
// (other readings, lexemes or budget prunes), or misses a recorded region
// or marked choice. The live tree was then not the cold parse of its text: an
// ApplyFilter rewrote it, its budget prunes depended on which subtrees the
// incremental parses reused, or an incremental parse in an ambiguous
// region committed a tree a cold parse does not give. RestoreSession
// returns the session with this error: its text and pending edits are the
// snapshot's, and its committed tree is the one a new session's first Do
// commits over that text — tolerant when the snapshot recorded error
// regions.
var ErrSnapshotDiverged = errors.New("incremental: the restored tree diverged from the snapshot's")

// SnapshotExt is the conventional snapshot file extension.
const SnapshotExt = sesscodec.FileExt

// Snapshot writes the session's current state to w as a .ccsess artifact.
// The session is not modified and stays fully usable; pending (uncommitted)
// edits are included and survive the round trip. Snapshot fails — writing
// nothing — if the session state cannot be captured consistently; callers
// treat that as "session not persistable" and keep it live.
//
// The artifact holds the text, not the tree: its size is the committed
// text's plus the edits' and a few bytes per error region and marked
// choice, and taking it costs one walk of the committed tree. ApplyFilter
// rewrites the committed dag in place, outside the session's parses, so no
// parse rebuilds a filtered tree: its restore reports ErrSnapshotDiverged
// with a twin that holds the unfiltered parse, and applying the same
// filter to the twin gives the filtered dag again.
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
	committed, pending, err := s.doc.CommittedState()
	if err != nil {
		return nil, err
	}
	st := sesscodec.State{Lang: s.lang.def, Text: committed, Pending: pending, Tag: tag}
	if root := s.doc.Root(); root != nil {
		st.HasTree = true
		errs, _ := dag.CollectErrors(root)
		for _, n := range errs {
			i, ok := s.doc.TreeIndex(n)
			if !ok {
				return nil, fmt.Errorf("incremental: snapshot: an error region is not in the committed tree")
			}
			r := isolate.Region{Lo: i, Hi: i + int(n.TermCount)}
			if det := s.doc.Arena().ErrorDetail(n); det != nil {
				r.Expected = det.Expected
			}
			st.Regions = append(st.Regions, r)
		}
		sites, fp := choiceSites(root)
		st.Fingerprint = fp
		for _, c := range sites {
			var marks []int
			for i, alt := range c.n.Kids {
				if alt.Filtered {
					marks = append(marks, i)
				}
			}
			if marks != nil {
				st.Choices = append(st.Choices, sesscodec.Choice{ChoiceKey: c.key, Filtered: marks})
			}
		}
		slices.SortFunc(st.Choices, func(a, b sesscodec.Choice) int { return sesscodec.CompareKeys(a.ChoiceKey, b.ChoiceKey) })
	}
	return sesscodec.Encode(st), nil
}

// choiceSite is a choice node of a committed tree with its key.
type choiceSite struct {
	n   *Node
	key sesscodec.ChoiceKey
}

// choiceSites returns the choice nodes reachable from root, each once, in
// preorder with every alternative visited, keyed by terminal span, symbol
// and occurrence (sesscodec.ChoiceKey), and the tree's fingerprint: a hash
// of every node's kind, symbol, production, lexeme, budget prune and kids
// in order, so two trees that render alike and prune alike share it
// however their nodes are shared. Filter marks are left out; the snapshot
// records those. The walk visits every node, but it allocates only for
// the choices it finds.
func choiceSites(root *Node) ([]choiceSite, uint64) {
	var sites []choiceSite
	var memo map[*Node]uint64
	var walk func(n *Node, base int) uint64
	walk = func(n *Node, base int) uint64 {
		w := uint64(n.Kind)<<32 | uint64(uint32(n.Sym))
		if n.BudgetPruned() {
			w |= 1 << 40
		}
		h := mix(w, uint64(uint32(n.Prod)))
		for i := 0; i < len(n.Text); i++ {
			h = (h ^ uint64(n.Text[i])) * 0x100000001b3 // FNV-1a
		}
		if n.Kind == dag.KindChoice {
			if v, ok := memo[n]; ok {
				return v
			}
			if memo == nil {
				memo = make(map[*Node]uint64)
			}
			memo[n] = 0 // so a cycle back to n, a live-tree fault, ends
			sites = append(sites, choiceSite{n: n, key: sesscodec.ChoiceKey{First: base, Count: int(n.TermCount), Sym: n.Sym}})
			for _, alt := range n.Kids {
				h = mix(h, walk(alt, base))
			}
			memo[n] = h
			return h
		}
		for _, k := range n.Kids {
			h = mix(h, walk(k, base))
			base += int(k.TermCount)
		}
		return h
	}
	fp := walk(root, 0)
	if len(sites) > 1 {
		occ := make(map[sesscodec.ChoiceKey]int, len(sites))
		for i := range sites {
			k := &sites[i].key
			k.Occ = occ[*k]
			occ[*k]++
		}
	}
	return sites, fp
}

// mix folds x into the hash h: splitmix64's multiply and xor-shift, so the
// order of the words matters.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// RestoreSession rebuilds a session from a .ccsess artifact written by
// Snapshot. lang must be the same language definition (by content hash)
// the snapshot was taken under; any other language is refused with
// ErrSnapshotLanguage. The committed text is parsed cold — through a mask
// of exactly the recorded error regions when there are any — the parse is
// checked against the recorded fingerprint, the recorded filter marks are
// re-applied, and the pending edits are
// re-applied through the normal edit path, so the restored session is
// byte-identical in behavior to the one snapshotted: same FormatDag, same
// Diagnostics, same outcomes for subsequent edits.
//
// Options apply as in NewSession (WithBudget, WithTrace), but the
// restore's own parse runs under the budget's MaxAlternatives alone: the
// live tree already passed the abort limits, and a cold parse of text
// that grew through edits is charged for all of it, where each
// incremental parse was charged for its growth. Parse statistics are
// session runtime state: Stats() starts at zero.
//
// A corrupt, truncated, or version-skewed artifact fails with an error
// matching ErrSnapshotCorrupt / ErrSnapshotVersion — never a panic. An
// intact artifact whose tree the parse does not reproduce returns a
// session over its text together with an error matching
// ErrSnapshotDiverged, never silently a different tree.
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
	st, err := sesscodec.Decode(data, lang.def)
	if err != nil {
		return nil, 0, err
	}
	s := NewSession(lang, st.Text, opts...)
	var diverged error
	if st.HasTree {
		if diverged = s.reparseCommitted(st); diverged != nil {
			s = NewSession(lang, st.Text, opts...)
			s.withAltBudget(func() {
				if len(st.Regions) > 0 {
					s.Do(nil, Tolerant())
				} else {
					s.Do(nil)
				}
			})
		}
	}
	for i, e := range st.Pending {
		if err := s.doc.ReplayEdit(e); err != nil {
			return nil, 0, fmt.Errorf("%w: pending edit %d: %v", ErrSnapshotCorrupt, i, err)
		}
	}
	s.stats = ParseStats{}
	if diverged != nil {
		return s, st.Tag, fmt.Errorf("%w: %v", ErrSnapshotDiverged, diverged)
	}
	return s, st.Tag, nil
}

// withAltBudget runs parse under the session budget's MaxAlternatives
// alone (see RestoreSession).
func (s *Session) withAltBudget(parse func()) {
	b := s.parser.Budget
	s.parser.Budget = Budget{MaxAlternatives: b.MaxAlternatives}
	defer func() { s.parser.Budget = b }()
	parse()
}

// reparseCommitted rebuilds the committed tree a snapshot recorded: one
// parse of the session's text, masked by the recorded error regions, then
// the check that the tree has the recorded fingerprint, then the recorded
// filter marks. Whatever does not reproduce is an error, and the caller
// drops the session.
func (s *Session) reparseCommitted(st *sesscodec.State) error {
	var (
		root *Node
		err  error
	)
	s.withAltBudget(func() {
		if len(st.Regions) == 0 {
			root, err = s.parseOnce(nil)
			return
		}
		var res isolate.Result
		res, err = isolate.Requarantine(nil, s.doc, s.parser, st.Regions)
		root = res.Root
	})
	if err != nil {
		return err
	}
	s.doc.Commit(root)
	sites, fp := choiceSites(root)
	if fp != st.Fingerprint {
		return fmt.Errorf("the parse's fingerprint is %#x, the snapshot's %#x", fp, st.Fingerprint)
	}
	if len(st.Choices) == 0 {
		return nil
	}
	at := make(map[sesscodec.ChoiceKey]*Node, len(sites))
	for _, site := range sites {
		at[site.key] = site.n
	}
	for _, c := range st.Choices {
		n := at[c.ChoiceKey]
		if n == nil || c.Filtered[len(c.Filtered)-1] >= len(n.Kids) {
			return fmt.Errorf("the parse has no choice at terminal %d with the recorded alternatives", c.First)
		}
		for _, i := range c.Filtered {
			n.Kids[i].Filtered = true
		}
	}
	return nil
}
