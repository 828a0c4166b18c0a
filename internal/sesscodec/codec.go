// Package sesscodec serializes live editing sessions as versioned,
// checksummed binary artifacts (.ccsess files). A snapshot holds what a
// parse cannot recompute: the committed text, the edits still pending
// against it, the journal tag, and the residue of the committed tree's
// history — the isolated error regions (their terminal ranges and
// expected sets) and the choice nodes that carry a semantic filter's
// marks — plus a fingerprint of the tree's structure, its budget prunes
// included. Everything else about the committed tree is a function of the
// text, so a restore reparses it and checks the parse against the
// fingerprint and the residue (see RestoreSession in the root package).
//
// Layout:
//
//	magic "CCSS" | uvarint format version | 32-byte language definition
//	hash | uvarint journal tag | flags | committed text |
//	[fingerprint | error regions | marked choices]   (committed-tree
//	sessions) |
//	pending edit log |
//	32-byte SHA-256 checksum over every preceding byte
//
// The language hash binds the artifact to the exact language definition it
// was taken under — restoring against any other language is refused, since
// terminal indices, symbols and alternative orders are meaningless outside
// their table. The trailing checksum is verified before any section
// decoder runs; the format version invalidates artifacts written by an
// incompatible codec. Consumers treat every decode failure as "artifact
// absent" and reparse from source.
package sesscodec

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"iglr/internal/document"
	"iglr/internal/grammar"
	"iglr/internal/isolate"
	"iglr/internal/langs"
	"iglr/internal/wire"
)

// Magic identifies session snapshot artifact files.
const Magic = "CCSS"

// FormatVersion is bumped whenever the artifact layout changes; older
// snapshots then silently fall back to reparse. Version 3 holds the text
// and the tree's history residue; version 2 held the token stream and the
// whole node table.
const FormatVersion = 3

// FileExt is the conventional snapshot file extension.
const FileExt = ".ccsess"

// Sentinel decode failures. All of them mean "reparse from source"; they
// are distinguished so callers (daemon metrics, tests) can report why.
var (
	// ErrCorrupt reports a truncated, bit-flipped, or non-artifact file.
	ErrCorrupt = errors.New("sesscodec: corrupt session snapshot")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("sesscodec: snapshot format version mismatch")
	// ErrLanguageMismatch reports a snapshot taken under a different
	// language definition than the one offered for restore.
	ErrLanguageMismatch = errors.New("sesscodec: snapshot language definition mismatch")
)

// State is the persistable extract of a session, as assembled by
// Session.Snapshot and returned by Decode.
type State struct {
	// Lang is the language the session parses under; its hash binds the
	// artifact. Decode leaves it unset.
	Lang *langs.Language
	// Text is the committed text (document.CommittedState).
	Text string
	// HasTree reports a committed tree: false when the session never
	// parsed, or its first parse failed.
	HasTree bool
	// Fingerprint is a hash of the committed tree's structure, which a
	// restore's parse must reproduce (the root package's choiceSites).
	Fingerprint uint64
	// Regions are the committed tree's isolated error regions, leftmost
	// first, in significant-terminal indices of the committed text; they
	// never overlap or touch.
	Regions []isolate.Region
	// Choices are the committed tree's choice nodes that carry history, in
	// key order (CompareKeys).
	Choices []Choice
	// Pending are the edits applied since the last commit, oldest first.
	Pending []document.AppliedEdit
	// Tag is an opaque sequence tag stored verbatim — the daemon uses it
	// to mark which journal records a snapshot already includes.
	Tag uint64
}

// ChoiceKey locates a choice node in a committed tree: the index of its
// first terminal, its terminal count, its symbol, and how many choice
// nodes with the same span and symbol precede it in the tree's walk.
type ChoiceKey struct {
	First, Count int
	Sym          grammar.Sym
	Occ          int
}

// CompareKeys orders choice keys by first terminal, then by span, longest
// first, then by symbol and occurrence.
func CompareKeys(a, b ChoiceKey) int {
	return cmp.Or(cmp.Compare(a.First, b.First), cmp.Compare(b.Count, a.Count),
		cmp.Compare(a.Sym, b.Sym), cmp.Compare(a.Occ, b.Occ))
}

// Choice is a choice node whose state a parse does not reproduce: the
// alternatives a semantic filter marked Filtered, at least one, listed by
// index in ascending order.
type Choice struct {
	ChoiceKey
	Filtered []int
}

// Header flag bits. Decode refuses any other bit.
const flagHasTree = 1 << 0

// Encode serializes st as a session snapshot artifact.
func Encode(st State) []byte {
	buf := make([]byte, 0, 128+len(st.Text))
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, FormatVersion)
	buf = append(buf, st.Lang.Hash[:]...)
	buf = binary.AppendUvarint(buf, st.Tag)
	var flags byte
	if st.HasTree {
		flags |= flagHasTree
	}
	buf = append(buf, flags)
	buf = wire.AppendString(buf, st.Text)

	if st.HasTree {
		buf = binary.LittleEndian.AppendUint64(buf, st.Fingerprint)
		buf = binary.AppendUvarint(buf, uint64(len(st.Regions)))
		for _, r := range st.Regions {
			buf = binary.AppendUvarint(buf, uint64(r.Lo))
			buf = binary.AppendUvarint(buf, uint64(r.Hi))
			buf = binary.AppendUvarint(buf, uint64(len(r.Expected)))
			for _, e := range r.Expected {
				buf = wire.AppendString(buf, e)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(st.Choices)))
		for _, c := range st.Choices {
			buf = binary.AppendUvarint(buf, uint64(c.First))
			buf = binary.AppendUvarint(buf, uint64(c.Count))
			buf = binary.AppendUvarint(buf, uint64(c.Sym))
			buf = binary.AppendUvarint(buf, uint64(c.Occ))
			buf = binary.AppendUvarint(buf, uint64(len(c.Filtered)))
			for _, i := range c.Filtered {
				buf = binary.AppendUvarint(buf, uint64(i))
			}
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.Pending)))
	for _, e := range st.Pending {
		buf = binary.AppendUvarint(buf, uint64(e.Offset))
		buf = wire.AppendString(buf, e.Removed)
		buf = wire.AppendString(buf, e.Inserted)
	}

	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// Decode reads an artifact produced by Encode, taken under l — which must
// be the same language definition (by content hash). The checksum is
// verified before anything else, so no section decoder ever sees corrupted
// bytes; the decoder nevertheless validates every field it can check
// without the tree (ranges, orders, symbols), so even a
// correctly-checksummed adversarial artifact yields ErrCorrupt, never a
// panic. What only the tree can check — that the regions splice and the
// choices exist — the restore checks.
func Decode(data []byte, l *langs.Language) (*State, error) {
	if len(data) < len(Magic)+sha256.Size+1 {
		return nil, ErrCorrupt
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, ErrCorrupt
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, ErrCorrupt
	}
	r := wire.NewReader(body[len(Magic):])
	if v := r.Uvarint(); r.Bad() {
		return nil, ErrCorrupt
	} else if v != FormatVersion {
		return nil, ErrVersion
	}
	hash := r.Bytes(sha256.Size)
	if r.Bad() {
		return nil, ErrCorrupt
	}
	if string(hash) != string(l.Hash[:]) {
		return nil, ErrLanguageMismatch
	}
	st := &State{Tag: r.Uvarint()}
	flags := r.Byte()
	st.Text = r.Str()
	if r.Bad() || flags&^flagHasTree != 0 {
		return nil, ErrCorrupt
	}
	st.HasTree = flags&flagHasTree != 0
	if st.HasTree {
		// A significant terminal is at least one byte, so every terminal
		// index and count is bounded by the text's length.
		fp := r.Bytes(8)
		if r.Bad() {
			return nil, ErrCorrupt
		}
		st.Fingerprint = binary.LittleEndian.Uint64(fp)
		maxTerm := uint64(len(st.Text))
		nRegions := r.Count()
		st.Regions = make([]isolate.Region, 0, nRegions)
		end := -1
		for i := 0; i < nRegions; i++ {
			lo, hi := r.Uvarint(), r.Uvarint()
			exp := make([]string, r.Count())
			for j := range exp {
				exp[j] = r.Str()
			}
			if r.Bad() || hi > maxTerm || lo >= hi || int(lo) <= end {
				return nil, fmt.Errorf("%w: error region %d malformed", ErrCorrupt, i)
			}
			end = int(hi)
			st.Regions = append(st.Regions, isolate.Region{Lo: int(lo), Hi: int(hi), Expected: exp})
		}
		nChoices := r.Count()
		st.Choices = make([]Choice, 0, nChoices)
		nSyms := uint64(l.Grammar.NumSymbols())
		for i := 0; i < nChoices; i++ {
			first, count, sym, occ := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
			marks := make([]int, r.Count())
			prev := -1
			for j := range marks {
				m := r.Uvarint()
				if m > math.MaxInt32 || int(m) <= prev {
					r.Fail()
					break
				}
				marks[j], prev = int(m), int(m)
			}
			if r.Bad() || first > maxTerm || count > maxTerm-first || sym >= nSyms ||
				occ > maxTerm || len(marks) == 0 {
				return nil, fmt.Errorf("%w: choice %d malformed", ErrCorrupt, i)
			}
			c := Choice{
				ChoiceKey: ChoiceKey{First: int(first), Count: int(count), Sym: grammar.Sym(sym), Occ: int(occ)},
				Filtered:  marks,
			}
			if i > 0 && CompareKeys(st.Choices[i-1].ChoiceKey, c.ChoiceKey) >= 0 {
				return nil, fmt.Errorf("%w: choice %d out of key order", ErrCorrupt, i)
			}
			st.Choices = append(st.Choices, c)
		}
	}

	nPending := r.Count()
	if r.Bad() {
		return nil, ErrCorrupt
	}
	st.Pending = make([]document.AppliedEdit, 0, nPending)
	for i := 0; i < nPending; i++ {
		off := r.Uvarint()
		removed := r.Str()
		inserted := r.Str()
		if r.Bad() || off > math.MaxInt32 {
			return nil, ErrCorrupt
		}
		st.Pending = append(st.Pending, document.AppliedEdit{Offset: int(off), Removed: removed, Inserted: inserted})
	}
	if len(r.Rest()) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.Rest()))
	}
	return st, nil
}
