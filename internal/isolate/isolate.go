// Package isolate implements tier-1, text-preserving error recovery: when
// a reparse fails, the damage is confined to the smallest enclosing
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
// Isolation gives up (callers then fall back to tier-2 history replay)
// when the regions would swallow the whole token stream, when no sequence
// structure bounds the gap, or after a fixed number of attempts.
// Infrastructure failures — budget trips, context cancellation — are never
// treated as syntax damage; they propagate unchanged.
package isolate

import (
	"context"
	"errors"
	"sort"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/grammar"
	"iglr/internal/iglr"
)

// ErrUnbounded reports that error isolation could not confine the damage
// (e.g. the whole file is garbage, or the grammar offers no sequence
// structure around the failure). Callers fall back to tier-2 edit replay.
var ErrUnbounded = errors.New("isolate: damage cannot be bounded")

// maxAttempts bounds the masked-parse iterations of one isolation run. It
// must comfortably exceed maxRegions: discovering each disjoint damage
// region costs at least one masked attempt, plus a few more for region
// growth and splice-driven expansion.
const maxAttempts = 64

// maxRegions bounds how many disjoint quarantine regions one run may
// accumulate before the file is treated as unboundable.
const maxRegions = 32

// Result reports a successful tier-1 isolating reparse. The root has not
// been committed; the caller owns that decision.
type Result struct {
	// Root is the spliced tree: a valid parse of the unquarantined text
	// with one KindError node per region.
	Root *dag.Node
	// Errors holds the spliced error nodes, leftmost first.
	Errors []*dag.Node
	// Regions are the final quarantine regions in terminal indices.
	Regions []document.Region
	// Attempts counts the masked parses the run needed.
	Attempts int
}

// region is a quarantine range plus the failure detail that created it.
type region struct {
	lo, hi   int
	expected []string
}

// Reparse runs tier-1 isolation over the document's current state using
// the given parser (whose Budget applies to every masked attempt). On
// success the returned Result's Root contains at least one error node and
// the document's text is untouched. A nil ctx disables cancellation polls.
func Reparse(ctx context.Context, d *document.Document, p *iglr.Parser) (Result, error) {
	terms := d.Terminals()
	if len(terms) == 0 {
		return Result{}, ErrUnbounded
	}
	g := d.Grammar()
	// idx maps each present terminal to its index, in a node-ID table:
	// terminals no longer in the document (and nodes the masked parses
	// build) have no entry.
	idx := dag.AcquireScratch()
	defer dag.ReleaseScratch(idx)
	for i, t := range terms {
		idx.SetValue(t, i)
	}
	s := &splicer{a: d.Arena(), g: g, seq: dag.NewSeqBuilder(d.Arena(), g), idx: idx}

	var regions []region
	creep := 0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		root, err := p.ParseContext(ctx, d.MaskedStream(mask(regions)))
		if err == nil {
			res, expand, serr := s.spliceAll(root, terms, regions)
			if serr != nil {
				return Result{}, serr
			}
			if expand == nil {
				for _, r := range res.Regions {
					if r.Lo > 0 {
						unstampBefore(res.Root, 0, r.Lo-1)
					}
				}
				res.Attempts = attempt
				return res, nil
			}
			regions = merge(regions, region{lo: expand.lo, hi: expand.hi})
			if unbounded(regions, len(terms)) {
				return Result{}, ErrUnbounded
			}
			continue
		}
		var se *iglr.SyntaxError
		if !errors.As(err, &se) {
			// Budget trip, cancellation, or an injected fault: the text is
			// not known to be wrong — the parse was aborted.
			return Result{}, err
		}
		anchor := curIndex(se, regions, terms)
		if anchor >= len(terms) {
			anchor = len(terms) - 1
		}
		// A failure at EOF clamps onto the last terminal, which may already
		// be quarantined; anchor on the nearest unmasked terminal instead.
		for i := len(regions) - 1; i >= 0; i-- {
			if r := regions[i]; anchor >= r.lo && anchor < r.hi {
				anchor = r.lo - 1
			}
		}
		if anchor < 0 {
			return Result{}, ErrUnbounded
		}
		// A failure bordering an existing region usually means the
		// quarantine cut a construct in half (e.g. a list header left
		// dangling before a masked non-empty sequence). Escalating the
		// region to the next enclosing sequence element re-aligns it with
		// the grammar instead of creeping across healthy neighbors.
		if adj := adjacentRegion(regions, anchor); adj >= 0 {
			if lo, hi, ok := escalate(g, idx, terms, regions[adj]); ok {
				regions = merge(regions, region{lo: lo, hi: hi})
				if unbounded(regions, len(terms)) {
					return Result{}, ErrUnbounded
				}
				continue
			}
		}
		next := failureRegion(g, idx, terms[anchor], anchor)
		// Panic-mode fallback: when the failure point has no committed
		// element structure and creeps forward token by token just past an
		// existing region, grow that region backward exponentially so a
		// batch parse of a broken file still finds a synchronization point.
		if next.expectedFromToken && adjacentBefore(regions, next.lo) {
			creep++
			back := 1 << creep
			if back > 64 {
				back = 64
			}
			next.lo -= back
			if next.lo < 0 {
				next.lo = 0
			}
		} else {
			creep = 0
		}
		next.expected = se.Expected
		regions = merge(regions, next.region)
		if unbounded(regions, len(terms)) {
			return Result{}, ErrUnbounded
		}
	}
	return Result{}, ErrUnbounded
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

// curIndex maps the parser's masked-stream token count back to a document
// terminal index: the k-th unmasked terminal, skipping quarantined spans.
func curIndex(se *iglr.SyntaxError, regions []region, terms []*dag.Node) int {
	k := 0
	consumed := se.TokenIndex
	for _, r := range regions {
		if r.lo > k+consumed {
			break
		}
		consumed -= r.lo - k // unmasked terminals before this region
		k = r.hi
	}
	k += consumed
	if k > len(terms) {
		k = len(terms)
	}
	return k
}

// failed captures one new quarantine range and whether it came from bare
// tokens (no committed element structure to lean on).
type failed struct {
	region
	expectedFromToken bool
}

// failureRegion chooses the quarantine range for a failure anchored on the
// document terminal t at index anchor: the whole enclosing sequence element
// when the terminal still belongs to committed structure, the bare token
// otherwise.
func failureRegion(g *grammar.Grammar, idx *dag.Scratch, t *dag.Node, anchor int) failed {
	if lo, hi, ok := elementSpan(g, idx, t); ok {
		if anchor < lo {
			lo = anchor
		}
		if anchor >= hi {
			hi = anchor + 1
		}
		return failed{region: region{lo: lo, hi: hi}}
	}
	return failed{region: region{lo: anchor, hi: anchor + 1}, expectedFromToken: true}
}

// elementSpan climbs from terminal t to the smallest committed ancestor
// that is an element of an associative sequence and returns its span in
// current terminal indices. Deleted boundary terminals shrink the span to
// the surviving ones.
func elementSpan(g *grammar.Grammar, idx *dag.Scratch, t *dag.Node) (lo, hi int, ok bool) {
	for n := t; n != nil; n = n.Parent {
		p := n.Parent
		if p == nil || !n.Committed {
			return 0, 0, false
		}
		if isSeqStruct(g, p) && !isSeqStruct(g, n) {
			return presentSpan(idx, n)
		}
	}
	return 0, 0, false
}

// presentSpan computes the [lo, hi) terminal-index span of n's yield over
// the terminals still present in the document.
func presentSpan(idx *dag.Scratch, n *dag.Node) (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for _, t := range n.Terminals(nil) {
		i, present := idx.Value(t)
		if !present {
			continue
		}
		if lo < 0 || i < lo {
			lo = i
		}
		if i >= hi {
			hi = i + 1
		}
	}
	if lo < 0 {
		return 0, 0, false
	}
	return lo, hi, true
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
func mask(regions []region) []document.Region {
	out := make([]document.Region, len(regions))
	for i, r := range regions {
		out[i] = document.Region{Lo: r.lo, Hi: r.hi}
	}
	return out
}

// merge inserts nr into the sorted, disjoint region list, coalescing
// overlapping or adjacent ranges. Failure details of the earliest merged
// region win (the first failure in a span is the one worth reporting).
func merge(regions []region, nr region) []region {
	out := regions[:0:0]
	placed := false
	for _, r := range regions {
		switch {
		case r.hi < nr.lo: // strictly before (not even adjacent)
			out = append(out, r)
		case nr.hi < r.lo: // strictly after
			if !placed {
				out = append(out, nr)
				placed = true
			}
			out = append(out, r)
		default: // overlap or adjacency: coalesce into nr and keep scanning
			if r.lo < nr.lo {
				nr.lo = r.lo
			}
			if r.hi > nr.hi {
				nr.hi = r.hi
			}
			if len(r.expected) > 0 {
				nr.expected = r.expected
			}
		}
	}
	if !placed {
		out = append(out, nr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}

// adjacentBefore reports whether some region ends exactly where lo begins.
func adjacentBefore(regions []region, lo int) bool {
	for _, r := range regions {
		if r.hi == lo {
			return true
		}
	}
	return false
}

// adjacentRegion returns the index of a region bordering the failure
// anchor on either side, or -1.
func adjacentRegion(regions []region, anchor int) int {
	for i, r := range regions {
		if r.hi == anchor || r.lo == anchor+1 {
			return i
		}
	}
	return -1
}

// escalate widens region r to the next enclosing committed sequence
// element that strictly extends it, climbing from the quarantined
// terminals. It returns ok=false when no such element exists (then the
// caller falls back to token-level growth).
func escalate(g *grammar.Grammar, idx *dag.Scratch, terms []*dag.Node, r region) (lo, hi int, ok bool) {
	for i := r.hi - 1; i >= r.lo; i-- {
		for n := terms[i]; n != nil && n.Committed; n = n.Parent {
			p := n.Parent
			if p == nil {
				break
			}
			if !isSeqStruct(g, p) || isSeqStruct(g, n) {
				continue
			}
			elo, ehi, present := presentSpan(idx, n)
			if !present || (elo >= r.lo && ehi <= r.hi) {
				continue // no extension yet: keep climbing
			}
			if elo > r.lo {
				elo = r.lo
			}
			if ehi < r.hi {
				ehi = r.hi
			}
			return elo, ehi, true
		}
	}
	return 0, 0, false
}

// unbounded reports whether the region set should abort isolation: the
// quarantine would swallow every terminal, or fragments past the cap.
func unbounded(regions []region, n int) bool {
	if len(regions) > maxRegions {
		return true
	}
	covered := 0
	for _, r := range regions {
		covered += r.hi - r.lo
	}
	return covered >= n
}
