// Package isolate implements text-preserving error recovery: when a
// reparse fails, the damage is confined to the smallest enclosing
// sequence/statement region instead of reverting the user's edits. The
// quarantined tokens are kept verbatim under an explicit error node
// (dag.KindError) spliced into an otherwise ordinary parse of the remaining
// text, so the rest of the tree stays valid and incrementally maintained —
// the paper's observation that errors "may persist indefinitely in
// erroneous programs" (§1, §4.3) made structural: unresolved syntax is a
// first-class, locally-confined representation state.
//
// The isolation loop alternates two moves until it converges:
//
//  1. Parse the document through a masked stream that skips the current
//     quarantine regions. A failure extends the regions — by the whole
//     enclosing sequence element when the failing token still belongs to
//     committed structure, by the bare token otherwise.
//  2. On success, splice an error node per region into the fresh tree at
//     the nearest enclosing associative-sequence boundary (the extended-CFG
//     sequence structure of internal/grammar). A region that does not end
//     on an element boundary is expanded to the enclosing element and the
//     loop re-runs.
//
// Terminals are read through the document's token runs, and a committed
// node's span is located from the tree and the pending edits
// (Document.PresentSpan), so an isolation costs the damage, the masked
// parses and O(lg N) per sequence it splices into, not the file.
//
// Where the loop cannot bound the damage — the regions would swallow the
// whole token stream, no sequence structure hosts a region, or the
// attempts run out — its last resort is one error node that owns every
// terminal, as the root. So isolation always keeps the text, and fails
// only for a document with no terminal at all. Infrastructure failures —
// budget trips, context cancellation — are never treated as syntax
// damage; they propagate unchanged.
//
// A restored session snapshot recorded where its regions ended up, so
// Requarantine runs the second move alone: one masked parse with exactly
// those regions and their splice, failing rather than growing a region.
package isolate

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/grammar"
	"iglr/internal/iglr"
)

// ErrUnbounded reports that the document has no terminal, so not even
// the whole-file error node can hold the damage.
var ErrUnbounded = errors.New("isolate: damage cannot be bounded")

// maxAttempts bounds the masked-parse iterations of one isolation run.
// Each attempt adds at most one region, so it bounds the region count
// too; a run that needs more quarantines the whole file.
const maxAttempts = 64

// Result reports a successful isolating reparse. The root has not
// been committed; the caller owns that decision.
type Result struct {
	// Root is the spliced tree: a valid parse of the unquarantined text
	// with one KindError node per region, or the whole-file error node.
	Root *dag.Node
	// Errors holds the spliced error nodes, leftmost first.
	Errors []*dag.Node
	// Regions are the final quarantine regions, leftmost first.
	Regions []Region
	// Work counts what the isolation did outside its masked parses: the
	// tree nodes and terminals it read plus the sequence parts it handled.
	Work int
}

// Region is a quarantine range — the significant terminals [Lo, Hi) an
// error node holds — plus the expected set it reports, the detail of the
// failure that created it.
type Region struct {
	Lo, Hi   int
	Expected []string
}

// Reparse runs isolation over the document's current state using the
// given parser (whose Budget applies to every masked attempt). failed, when
// not nil, is the syntax error of a parse of that same state without a
// mask: a repeat would fail the same way, so failed stands for the first
// attempt. On success the returned Result's Root contains at least one
// error node — at worst one that owns every terminal — and the document's
// text is untouched. It fails with ErrUnbounded only when the document has
// no terminal, and otherwise only with an error that aborted a masked
// parse. A nil ctx disables cancellation polls.
func Reparse(ctx context.Context, d *document.Document, p *iglr.Parser, failed *iglr.SyntaxError) (Result, error) {
	n := d.NumTerms()
	if n == 0 {
		return Result{}, ErrUnbounded
	}
	s := newSplicer(d)

	var regions []Region
	var expected []string // the first failure's, for the whole-file node
	creep := 0
	for attempt := range maxAttempts {
		se := failed
		if attempt > 0 || se == nil {
			root, err := p.ParseContext(ctx, d.MaskedStream(mask(regions)))
			if err == nil {
				res, expand, ok := s.spliceAll(root, regions)
				if !ok {
					break
				}
				if expand == nil {
					return res, nil
				}
				regions = merge(regions, Region{Lo: expand.lo, Hi: expand.hi})
				if unbounded(regions, n) {
					break
				}
				continue
			}
			if !errors.As(err, &se) {
				// Budget trip, cancellation, or an injected fault: the text is
				// not known to be wrong — the parse was aborted.
				return Result{}, err
			}
		}
		if expected == nil {
			expected = se.Expected
		}
		anchor := min(unmask(se.TokenIndex, regions), n-1)
		// A failure at EOF clamps onto the last terminal, which may already
		// be quarantined; anchor on the nearest unmasked terminal instead.
		for i := len(regions) - 1; i >= 0; i-- {
			if r := regions[i]; anchor >= r.Lo && anchor < r.Hi {
				anchor = r.Lo - 1
			}
		}
		if anchor < 0 {
			break
		}
		// A failure bordering an existing region usually means the
		// quarantine cut a construct in half (e.g. a list header left
		// dangling before a masked non-empty sequence). Escalating the
		// region to the next enclosing sequence element re-aligns it with
		// the grammar instead of creeping across healthy neighbors.
		if adj := adjacentRegion(regions, anchor); adj >= 0 {
			if lo, hi, ok := s.escalate(regions[adj]); ok {
				regions = merge(regions, Region{Lo: lo, Hi: hi})
				if unbounded(regions, n) {
					break
				}
				continue
			}
		}
		next := s.failureRegion(anchor)
		// Panic-mode fallback: when the failure point has no committed
		// element structure and creeps forward token by token just past an
		// existing region, grow that region backward exponentially so a
		// batch parse of a broken file still finds a synchronization point.
		if next.expectedFromToken && adjacentBefore(regions, next.Lo) {
			creep++
			back := 1 << creep
			if back > 64 {
				back = 64
			}
			next.Lo -= back
			if next.Lo < 0 {
				next.Lo = 0
			}
		} else {
			creep = 0
		}
		next.Expected = se.Expected
		regions = merge(regions, next.Region)
		if unbounded(regions, n) {
			break
		}
	}
	return s.wholeFile(expected), nil
}

// Requarantine rebuilds a committed tree's error regions over the
// document's current state: one parse through a mask of exactly the given
// regions (sorted, disjoint and not touching, as Reparse leaves them),
// then Reparse's splice of one error node per region. Where Reparse would
// grow a region — the parse fails, or a region no longer splices at a
// sequence boundary — Requarantine fails instead, so the tree it returns
// holds exactly the regions it was given. One region over every terminal
// is Reparse's last resort, rebuilt the same way without a parse. The
// parser's Budget applies; a nil ctx disables cancellation polls.
func Requarantine(ctx context.Context, d *document.Document, p *iglr.Parser, regions []Region) (Result, error) {
	n := d.NumTerms()
	end := -1
	for _, r := range regions {
		if r.Lo <= end || r.Hi <= r.Lo || r.Hi > n {
			return Result{}, fmt.Errorf("isolate: region [%d,%d) out of order or outside %d terminals", r.Lo, r.Hi, n)
		}
		end = r.Hi
	}
	s := newSplicer(d)
	if len(regions) == 1 && regions[0].Lo == 0 && regions[0].Hi == n {
		return s.wholeFile(regions[0].Expected), nil
	}
	root, err := p.ParseContext(ctx, d.MaskedStream(mask(regions)))
	if err != nil {
		return Result{}, err
	}
	res, expand, ok := s.spliceAll(root, regions)
	switch {
	case !ok:
		return Result{}, errors.New("isolate: no sequence structure hosts a region")
	case expand != nil:
		return Result{}, fmt.Errorf("isolate: a region would grow to [%d,%d)", expand.lo, expand.hi)
	}
	return res, nil
}

// unstampBefore stamps NoState on every node under n (whose yield starts
// at terminal index off) whose yield ends at terminal i, the last one
// before a quarantined region. The masked parse completed that structure
// with the token after the region as its lookahead, not the quarantined
// token that follows it in the document, so an incremental reparse must
// never reuse it by state matching: the stream's right-context test cannot
// see the difference.
func unstampBefore(n *dag.Node, off, i int) {
	if n.IsTerminal() {
		return
	}
	if off+int(n.TermCount) == i+1 {
		n.State = dag.NoState
	}
	if n.IsChoice() {
		for _, alt := range n.Kids {
			unstampBefore(alt, off, i)
		}
		return
	}
	for _, k := range n.Kids {
		if c := int(k.TermCount); i < off+c {
			unstampBefore(k, off, i)
			return
		} else {
			off += c
		}
	}
}

// unmask maps position p of a yield that lacks the given regions (sorted
// and disjoint) — the masked stream's, where a parser's token count is a
// position, or that of a tree whose regions are not spliced yet — to a
// document terminal index.
func unmask(p int, regions []Region) int {
	for _, r := range regions {
		if p < r.Lo {
			break
		}
		p += r.Hi - r.Lo
	}
	return p
}

// failed captures one new quarantine range and whether it came from bare
// tokens (no committed element structure to lean on).
type failed struct {
	Region
	expectedFromToken bool
}

// failureRegion chooses the quarantine range for a failure anchored on
// document terminal anchor: the whole enclosing sequence element when the
// terminal still belongs to committed structure, the bare token otherwise.
func (s *splicer) failureRegion(anchor int) failed {
	if lo, hi, ok := s.elementSpan(s.term(anchor)); ok {
		if anchor < lo {
			lo = anchor
		}
		if anchor >= hi {
			hi = anchor + 1
		}
		return failed{Region: Region{Lo: lo, Hi: hi}}
	}
	return failed{Region: Region{Lo: anchor, Hi: anchor + 1}, expectedFromToken: true}
}

// elementSpan climbs from terminal t to the smallest committed ancestor
// that is an element of an associative sequence and returns its span in
// current terminal indices. Deleted boundary terminals shrink the span to
// the surviving ones.
func (s *splicer) elementSpan(t *dag.Node) (lo, hi int, ok bool) {
	for n := t; n != nil; n = n.Parent {
		p := n.Parent
		if p == nil || !n.Committed() {
			return 0, 0, false
		}
		if isSeqStruct(s.g, p) && !isSeqStruct(s.g, n) {
			return s.presentSpan(n)
		}
	}
	return 0, 0, false
}

// isSeqStruct reports whether n is associative-sequence structure: a
// balanced KindSeq node or a generated left-recursive chain production.
func isSeqStruct(g *grammar.Grammar, n *dag.Node) bool {
	if n.Kind == dag.KindSeq {
		return true
	}
	return n.Kind == dag.KindProduction && g.Symbol(n.Sym).IsSequence()
}

// mask renders the region set in the document layer's form.
func mask(regions []Region) []document.Region {
	out := make([]document.Region, len(regions))
	for i, r := range regions {
		out[i] = document.Region{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

// merge inserts nr into the sorted, disjoint region list, coalescing
// overlapping or adjacent ranges. Failure details of the earliest merged
// region win (the first failure in a span is the one worth reporting).
func merge(regions []Region, nr Region) []Region {
	out := regions[:0:0]
	placed := false
	for _, r := range regions {
		switch {
		case r.Hi < nr.Lo: // strictly before (not even adjacent)
			out = append(out, r)
		case nr.Hi < r.Lo: // strictly after
			if !placed {
				out = append(out, nr)
				placed = true
			}
			out = append(out, r)
		default: // overlap or adjacency: coalesce into nr and keep scanning
			if r.Lo < nr.Lo {
				nr.Lo = r.Lo
			}
			if r.Hi > nr.Hi {
				nr.Hi = r.Hi
			}
			if len(r.Expected) > 0 {
				nr.Expected = r.Expected
			}
		}
	}
	if !placed {
		out = append(out, nr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// adjacentBefore reports whether some region ends exactly where lo begins.
func adjacentBefore(regions []Region, lo int) bool {
	for _, r := range regions {
		if r.Hi == lo {
			return true
		}
	}
	return false
}

// adjacentRegion returns the index of a region bordering the failure
// anchor on either side, or -1.
func adjacentRegion(regions []Region, anchor int) int {
	for i, r := range regions {
		if r.Hi == anchor || r.Lo == anchor+1 {
			return i
		}
	}
	return -1
}

// escalate widens region r to the next enclosing committed sequence
// element that strictly extends it, climbing from the quarantined
// terminals. It returns ok=false when no such element exists (then the
// caller falls back to token-level growth).
func (s *splicer) escalate(r Region) (lo, hi int, ok bool) {
	for i := r.Hi - 1; i >= r.Lo; i-- {
		for n := s.term(i); n != nil && n.Committed(); n = n.Parent {
			p := n.Parent
			if p == nil {
				break
			}
			if !isSeqStruct(s.g, p) || isSeqStruct(s.g, n) {
				continue
			}
			elo, ehi, present := s.presentSpan(n)
			if !present || (elo >= r.Lo && ehi <= r.Hi) {
				continue // no extension yet: keep climbing
			}
			if elo > r.Lo {
				elo = r.Lo
			}
			if ehi < r.Hi {
				ehi = r.Hi
			}
			return elo, ehi, true
		}
	}
	return 0, 0, false
}

// unbounded reports whether the quarantine would swallow every terminal,
// so that only the whole-file error node can hold the damage.
func unbounded(regions []Region, n int) bool {
	covered := 0
	for _, r := range regions {
		covered += r.Hi - r.Lo
	}
	return covered >= n
}
