// Package recovery implements the paper's history-sensitive, non-correcting
// error recovery (§4.3, [27]): when a reparse fails, the user's
// modifications since the last consistent version are replayed one at a
// time, and only those that yield at least one valid parse tree are
// incorporated. The remainder are reverted and reported as unincorporated
// material — the document always converges to a consistent tree, and the
// erroneous edits are flagged rather than "corrected". The approach is
// automated, language independent and incremental: each probe is an
// incremental parse over mostly reused structure.
//
// In the two-tier scheme this package is tier 2: sessions first attempt
// text-preserving error isolation (internal/isolate) and only replay
// history when the damage cannot be bounded. Replay is history-sensitive
// and so may revert text; isolation never does.
//
// Non-deterministic regions are treated atomically by construction: an
// edit inside an ambiguous region invalidates (and reparses) the whole
// region, so partial update incorporation within one cannot occur.
package recovery

import (
	"context"
	"errors"
	"sort"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/guard"
)

// ParseFunc runs one incremental parse attempt over the document's current
// state (e.g. wrapping iglr.Parser.Parse with the document's stream).
type ParseFunc func(d *document.Document) (*dag.Node, error)

// IsInfrastructure classifies a parse failure: true for resource-budget
// trips and context cancellation — aborted parses that say nothing about
// whether the text is syntactically valid. Neither edit replay nor error
// isolation may react to these by discarding or quarantining user edits;
// they must surface unchanged with the pending edits intact so the caller
// can retry under a bigger budget.
func IsInfrastructure(err error) bool {
	return err != nil &&
		(errors.Is(err, guard.ErrBudget) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded))
}

// Outcome reports a recovery run.
type Outcome struct {
	// Root is the committed tree after recovery.
	Root *dag.Node
	// Incorporated holds the edits that were kept.
	Incorporated []document.AppliedEdit
	// Unincorporated holds the reverted edits, in application order —
	// the "unincorporated material" the environment flags to the user.
	Unincorporated []document.AppliedEdit
	// Clean reports that the initial parse succeeded with no recovery.
	Clean bool
	// Err is non-nil in two cases. An infrastructure failure (budget trip,
	// cancellation — see IsInfrastructure) aborts recovery immediately:
	// the pending edits are left intact for a retry and no text is
	// reverted. Otherwise Err reports a failed first parse with no history
	// to fall back on; then the document is restored to its baseline text
	// — the pending edits are reverted and reported in Unincorporated —
	// and Root is non-nil if the baseline text itself parses.
	Err error
}

// site records one divergence between the recorded edit history's
// coordinate space and the document: at pos (in the space later edits were
// recorded in), the history has insLen bytes of inserted text the document
// never received, while the document still holds the remLen bytes the
// skipped edit would have removed.
type site struct{ pos, insLen, remLen int }

// replayMap translates offsets from the recorded-history coordinate space
// to current document offsets as edits are skipped. The recorded space
// always advances with every processed edit (each later edit was recorded
// on top of all earlier ones, incorporated or not); the document only
// advances for incorporated ones, and the sites track the difference.
type replayMap struct{ sites []site }

// adjust maps an offset in the current recorded space to a document
// offset. Offsets inside a skipped edit's phantom inserted text clamp to
// the site start — the least-surprising anchor for an edit whose base text
// never made it into the document.
func (m *replayMap) adjust(off int) int {
	shift := 0
	for _, s := range m.sites {
		if off >= s.pos+s.insLen {
			shift += s.remLen - s.insLen
			continue
		}
		if off > s.pos {
			off = s.pos
		}
		break
	}
	return off + shift
}

// advance moves every site across a processed edit (at, remLen, insLen) in
// the recorded space, bringing the map into the space the next recorded
// edit used. Sites overlapping the edit clamp to its start — an
// approximation; replay's probe-and-content checks turn any residual
// imprecision into a skipped edit rather than corruption.
func (m *replayMap) advance(at, remLen, insLen int) {
	delta := insLen - remLen
	for i := range m.sites {
		s := &m.sites[i]
		switch {
		case s.pos >= at+remLen:
			s.pos += delta
		case s.pos+s.insLen <= at:
			// entirely before the edit: unchanged
		default:
			s.pos = at
		}
	}
}

// skip records edit e as unincorporated in the current recorded space.
func (m *replayMap) skip(e document.AppliedEdit) {
	m.sites = append(m.sites, site{pos: e.Offset, insLen: len(e.Inserted), remLen: len(e.Removed)})
	sort.Slice(m.sites, func(i, j int) bool { return m.sites[i].pos < m.sites[j].pos })
}

// Parse parses the document, recovering via edit replay on failure. On
// success (with or without recovery) the resulting tree is committed.
// Infrastructure failures (IsInfrastructure) abort immediately with the
// pending edits intact.
func Parse(d *document.Document, parse ParseFunc) Outcome {
	root, err := parse(d)
	if err == nil {
		out := Outcome{Root: root, Incorporated: d.PendingEdits(), Clean: true}
		d.Commit(root)
		return out
	}
	if IsInfrastructure(err) {
		return Outcome{Err: err}
	}
	if d.Root() == nil {
		// No prior consistent version exists, so edit replay has no
		// baseline tree. Still converge: revert the pending edits
		// (restoring the creation-time text), report them as
		// unincorporated, and commit the baseline if it parses — a
		// failed first parse must not leave the document holding text
		// no tree will ever correspond to.
		out := Outcome{Err: err, Unincorporated: d.PendingEdits()}
		if len(out.Unincorporated) == 0 {
			// The creation-time text itself is the failure; there is
			// nothing to revert and re-probing it would just fail again.
			return out
		}
		d.RevertPending()
		if root, berr := parse(d); berr == nil {
			d.Commit(root)
			out.Root = root
		}
		return out
	}

	pending := d.PendingEdits()
	d.RevertPending()

	var out Outcome
	var m replayMap
	for i, e := range pending {
		if off, ok := m.locate(d, e); !ok {
			out.Unincorporated = append(out.Unincorporated, e)
			m.advance(e.Offset, len(e.Removed), len(e.Inserted))
			m.skip(e)
			continue
		} else {
			d.Replace(off, len(e.Removed), e.Inserted)
			root, perr := parse(d)
			if perr == nil {
				d.Commit(root)
				out.Incorporated = append(out.Incorporated, e)
				m.advance(e.Offset, len(e.Removed), len(e.Inserted))
				continue
			}
			d.RevertPending()
			if IsInfrastructure(perr) {
				// The probe was aborted, not rejected: stop replaying and
				// restore the remaining history as pending edits so a
				// retry under a bigger budget sees the user's text.
				out.Err = perr
				m.restore(d, pending[i:])
				out.Root = d.Root()
				return out
			}
			out.Unincorporated = append(out.Unincorporated, e)
			m.advance(e.Offset, len(e.Removed), len(e.Inserted))
			m.skip(e)
		}
	}
	out.Root = d.Root()
	return out
}

// locate maps edit e's recorded offset into the document and validates it:
// the offset must be in range and the text it would remove must still be
// present verbatim. A failed check means surrounding skipped edits changed
// the ground under e, so e cannot be replayed faithfully.
func (m *replayMap) locate(d *document.Document, e document.AppliedEdit) (int, bool) {
	off := m.adjust(e.Offset)
	if off < 0 || off > d.Len() || off+len(e.Removed) > d.Len() {
		return 0, false
	}
	if len(e.Removed) > 0 && d.Text()[off:off+len(e.Removed)] != e.Removed {
		return 0, false
	}
	return off, true
}

// restore reapplies the given recorded edits to the document as pending
// (unparsed, uncommitted) edits after an aborted replay, so the document
// again holds the user's text and history. Edits that no longer locate
// cleanly are dropped into the map as skips — the same degradation a
// failed probe produces.
func (m *replayMap) restore(d *document.Document, rest []document.AppliedEdit) {
	for _, e := range rest {
		if off, ok := m.locate(d, e); ok {
			d.Replace(off, len(e.Removed), e.Inserted)
			m.advance(e.Offset, len(e.Removed), len(e.Inserted))
			continue
		}
		m.advance(e.Offset, len(e.Removed), len(e.Inserted))
		m.skip(e)
	}
}
