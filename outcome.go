package incremental

import (
	"context"
	"errors"

	"iglr/internal/dag"
	"iglr/internal/iglr"
	"iglr/internal/isolate"
)

// ParseOption configures one Session.Do call. Options compose: the zero
// set is a plain incremental parse that fails on the first syntax error.
type ParseOption func(*parseConfig)

type parseConfig struct {
	tolerant bool
}

// Tolerant enables error recovery for this call: a syntax error never
// reverts the user's text. The damage is confined to the smallest
// enclosing sequence region, the skipped tokens are kept verbatim under
// error nodes in the committed tree, and Diagnostics reports them. Where
// no sequence bounds the damage, one error node owns the whole text.
// Only a text with no token fails, with a *ParseError. Infrastructure
// failures (ErrBudget, cancellation) abort with pending edits intact and
// trigger no recovery.
func Tolerant() ParseOption {
	return func(c *parseConfig) { c.tolerant = true }
}

// Outcome is the result of one Session.Do call — the single result shape
// for both parse modes (plain and tolerant).
type Outcome struct {
	// Root is the committed parse dag: non-nil exactly when Err is nil.
	// Under Tolerant it may be an error node that owns the whole text.
	Root *Node
	// Clean reports that the parse succeeded with no recovery.
	Clean bool
	// Isolated reports that error isolation produced Root (Tolerant
	// only): the text was preserved verbatim and the damage is quarantined
	// under ErrorRegions error nodes. Diagnostics() locates them.
	Isolated bool
	// ErrorRegions counts the quarantined error nodes in Root when
	// Isolated.
	ErrorRegions int
	// Stats snapshots the IGLR parser's work counters for the call's
	// parse (identical to Session.Stats()).
	Stats ParseStats
	// Err is nil on success. It carries line/column information as a
	// *ParseError for syntax errors (under Tolerant, only for a text with
	// no token); budget trips and cancellation pass through unwrapped
	// (match with ErrBudget / errors.Is(err, ctx.Err())).
	Err error
}

// Do (re)parses the document incrementally, committing on success — the
// one session parse call for both modes (plain and tolerant).
// The previous committed tree is retained on failure. The parser polls ctx
// periodically and abandons the parse with an error satisfying
// errors.Is(err, ctx.Err()) once the context is done; a nil ctx disables
// the checks, and a cancelled parse can simply be retried.
func (s *Session) Do(ctx context.Context, opts ...ParseOption) Outcome {
	// Zero options is the hot path (a clean reparse must stay
	// allocation-free): skip the config application, whose indirect calls
	// would force the config to the heap.
	if len(opts) == 0 {
		return s.doPlain(ctx)
	}
	var cfg parseConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.tolerant {
		return s.doTolerant(ctx)
	}
	return s.doPlain(ctx)
}

// doPlain is Do's fail-fast path: parse, commit on success, report the
// located error otherwise.
func (s *Session) doPlain(ctx context.Context) Outcome {
	root, err := s.parseOnce(ctx)
	if err != nil {
		return Outcome{Err: s.locate(err), Stats: s.stats}
	}
	s.doc.Commit(root)
	return Outcome{Root: root, Clean: true, Stats: s.stats}
}

// doTolerant is Do's recovering path (see the Tolerant option): parse,
// and on a syntax error commit the isolating reparse's tree instead,
// starting it from that error. Any other failure — a budget trip, a
// cancellation — aborted the parse and says nothing about whether the text
// is valid: it surfaces unchanged, with the pending edits intact, so the
// caller can retry under a bigger budget.
func (s *Session) doTolerant(ctx context.Context) Outcome {
	s.isolateWork = 0
	root, err := s.parseOnce(ctx)
	if err == nil {
		s.doc.Commit(root)
		return Outcome{Root: root, Clean: true, Stats: s.stats}
	}
	var se *iglr.SyntaxError
	if !errors.As(err, &se) {
		return Outcome{Err: err, Stats: s.stats}
	}
	res, ierr := isolate.Reparse(ctx, s.doc, s.parser, se)
	s.isolateWork = res.Work
	if errors.Is(ierr, isolate.ErrUnbounded) {
		// The text has no token for an error node to hold.
		return Outcome{Err: s.locate(err), Stats: s.stats}
	}
	if ierr != nil {
		return Outcome{Err: ierr, Stats: s.stats}
	}
	s.doc.Commit(res.Root)
	return Outcome{Root: res.Root, Isolated: true, ErrorRegions: len(res.Errors), Stats: s.stats}
}

// NodeSpan reports n's byte span in the current text. n must belong to the
// session's committed tree; ok is false when the node's entire yield has
// been edited away (or n has no terminal yield). Positions track pending
// edits, so a span stays valid while edits accumulate before the next Do.
//
// Cost: the node is located from the tree — its left siblings' terminal
// counts along its parent chain, then a descent from each end past the
// terminals pending edits removed, moved through those edits' terminal
// damage — and the token runs' headers, in O(depth·fanout + removed
// terminals + pending edits + lg runs) plus a scan of at most two runs of
// 512 tokens, whatever the file size. For a node whose parent chain does
// not reach the committed root (one shared between readings, or kept from
// an older tree), it falls back to scanning every token of the document.
func (s *Session) NodeSpan(n *Node) (offset, length int, ok bool) {
	offset, length, ok = s.doc.NodeSpan(n)
	s.readWork = s.doc.LastReadWork
	return offset, length, ok
}

// Subtree returns the smallest node in the committed tree whose span
// covers [offset, offset+length), descending through choice nodes via
// their first unfiltered alternative. A range that reaches past the root's
// span — into leading or trailing whitespace, or off the text — is first
// clamped to it, so [0, Len()) asks for the whole tree. It returns the
// root when no smaller node covers the range, and nil before the first
// successful Do (or when the range touches no terminal: it lies wholly
// outside the root's span). The returned node is owned by the session's
// tree and must not be mutated.
//
// Cost: with no edit pending since the last Do, the range becomes a window
// of terminal indices once (two binary searches over the token runs'
// headers, each with a scan of one run), and the descent compares each
// kid's terminal count with it: O(depth·fanout) node visits, whatever the
// file size. While edits are pending it falls back to locating every kid
// it tries with a scan of the whole token stream.
func (s *Session) Subtree(offset, length int) *Node {
	root := s.doc.Root()
	s.readWork = 0
	if root == nil {
		return nil
	}
	a, b, ok := s.doc.TermWindow(offset, offset+length)
	s.readWork = s.doc.LastReadWork
	if !ok {
		return s.subtreeScan(root, offset, length)
	}
	if a < 0 || b >= int(root.TermCount) {
		// The range reaches past the root's span, into leading or trailing
		// whitespace or off the text: clamp it to the span, as a read of
		// the whole text asks.
		off, ln, ok := s.doc.NodeSpan(root)
		s.readWork += s.doc.LastReadWork
		lo, hi := max(offset, off), min(offset+length, off+ln)
		if !ok || hi <= lo {
			return nil
		}
		offset, length = lo, hi-lo
		a, b, _ = s.doc.TermWindow(offset, offset+length)
		s.readWork += s.doc.LastReadWork
	}
	if length < 1 {
		_, b, _ = s.doc.TermWindow(offset, offset+1)
		s.readWork += s.doc.LastReadWork
	}
	// The descent by terminal indices: the kid whose terminals [base,
	// base+TermCount) hold the window, as subtreeScan's span test would
	// find it.
	n, base := root, 0
descend:
	for {
		if n.Kind == dag.KindChoice {
			// Alternatives cover the same span; narrow into the reading the
			// pipeline would embed.
			for _, alt := range n.Kids {
				s.readWork++
				if alt != nil && !alt.Filtered {
					n = alt
					continue descend
				}
			}
			return n
		}
		for _, k := range n.Kids {
			s.readWork++
			if k == nil {
				continue
			}
			c := int(k.TermCount)
			if c > 0 && base <= a && base+c-1 >= b {
				n = k
				continue descend
			}
			base += c
		}
		return n
	}
}

// subtreeScan is Subtree's fallback while edits are pending, and the
// reference the read oracle holds Subtree to: it locates the root and each
// kid it tries with the document's scan of the whole token stream.
func (s *Session) subtreeScan(n *Node, offset, length int) *Node {
	off, ln, ok := s.doc.ScanSpan(n)
	s.readWork += s.doc.LastReadWork
	if !ok {
		return nil
	}
	if offset < off || offset+length > off+ln {
		lo, hi := max(offset, off), min(offset+length, off+ln)
		if hi <= lo {
			return nil
		}
		offset, length = lo, hi-lo
	}
	if length < 1 {
		length = 1
	}
descend:
	for {
		kids := n.Kids
		if n.Kind == dag.KindChoice {
			for _, alt := range kids {
				if alt != nil && !alt.Filtered {
					n = alt
					continue descend
				}
			}
			return n
		}
		for _, k := range kids {
			if k == nil {
				continue
			}
			off, ln, ok := s.doc.ScanSpan(k)
			s.readWork += s.doc.LastReadWork
			if ok && offset >= off && offset+length <= off+ln {
				n = k
				continue descend
			}
		}
		return n
	}
}
