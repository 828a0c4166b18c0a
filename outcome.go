package incremental

import (
	"context"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/isolate"
	"iglr/internal/recovery"
)

// ParseOption configures one Session.Do call. Options compose: the zero
// set is a plain incremental parse that fails on the first syntax error.
type ParseOption func(*parseConfig)

type parseConfig struct {
	tolerant      bool
	deterministic bool
}

// Tolerant enables two-tier error recovery for this call. Tier 1: a syntax
// error never reverts the user's text — the damage is confined to the
// smallest enclosing sequence region, the skipped tokens are kept verbatim
// under error nodes in the committed tree, and Diagnostics reports them.
// Tier 2, only when isolation cannot bound the damage: history-sensitive
// replay, where failing edits are reverted and reported in
// Outcome.Unincorporated. Infrastructure failures (ErrBudget,
// cancellation) abort with pending edits intact and trigger neither tier.
func Tolerant() ParseOption {
	return func(c *parseConfig) { c.tolerant = true }
}

// Deterministic switches the session to the deterministic incremental
// parser (§3.2 baseline) before parsing — the option spelling of
// UseDeterministic, and like it the switch is sticky: later Do calls on
// the same session keep using the deterministic parser. Do fails with an
// error if the language's table has conflicts. Syntax errors under the
// deterministic parser are re-run through the GLR parser so recovery and
// diagnostics behave identically in both modes.
func Deterministic() ParseOption {
	return func(c *parseConfig) { c.deterministic = true }
}

// Outcome is the result of one Session.Do call — the single result shape
// for every parse mode (plain, deterministic, tolerant).
type Outcome struct {
	// Root is the committed parse dag. It is non-nil on success; under
	// Tolerant it may also be non-nil alongside a non-nil Err when tier-2
	// recovery restored and committed the baseline text.
	Root *Node
	// Clean reports that the parse succeeded with no recovery.
	Clean bool
	// Isolated reports that tier-1 error isolation produced Root
	// (Tolerant only): the text was preserved verbatim and the damage is
	// quarantined under ErrorRegions error nodes. Diagnostics() locates
	// them.
	Isolated bool
	// ErrorRegions counts the quarantined error nodes in Root when
	// Isolated.
	ErrorRegions int
	// Incorporated holds the edits this call committed; Unincorporated
	// holds edits reverted by tier-2 recovery, in application order. Both
	// are populated under Tolerant only (the plain path leaves them nil to
	// preserve the zero-allocation clean reparse guarantee).
	Incorporated, Unincorporated []AppliedEdit
	// Stats snapshots the session's IGLR work counters after the call
	// (identical to Session.Stats()).
	Stats ParseStats
	// Err is nil on success. On the plain path it carries line/column
	// information as a *ParseError for syntax errors; budget trips and
	// cancellation pass through unwrapped (match with ErrBudget /
	// errors.Is(err, ctx.Err())). Under Tolerant, see the Tolerant option
	// for when Err is set.
	Err error
}

// Do (re)parses the document incrementally, committing on success — the
// one session parse call for every mode (plain, deterministic, tolerant).
// The previous committed tree is retained on failure. The parser polls ctx
// periodically and abandons the parse with an error satisfying
// errors.Is(err, ctx.Err()) once the context is done; a nil ctx disables
// the checks, and a cancelled parse can simply be retried.
func (s *Session) Do(ctx context.Context, opts ...ParseOption) Outcome {
	// Zero options is the hot path (a clean deterministic reparse must stay
	// allocation-free): skip the config application, whose indirect calls
	// would force the config to the heap.
	if len(opts) == 0 {
		return s.doPlain(ctx)
	}
	var cfg parseConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.deterministic && s.det == nil {
		if err := s.UseDeterministic(); err != nil {
			return Outcome{Err: err, Stats: s.stats}
		}
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

// doTolerant is Do's two-tier recovery path (see the Tolerant option).
func (s *Session) doTolerant(ctx context.Context) Outcome {
	pending := s.doc.PendingEdits()
	root, err := s.parseOnce(ctx)
	if err == nil {
		s.doc.Commit(root)
		return Outcome{Root: root, Incorporated: pending, Clean: true, Stats: s.stats}
	}
	if recovery.IsInfrastructure(err) {
		return Outcome{Err: err, Stats: s.stats}
	}
	// Tier 1: text-preserving isolation, always driven by the GLR parser
	// (deterministic sessions hand their syntax errors over anyway).
	if res, ierr := isolate.Reparse(ctx, s.doc, s.parser); ierr == nil {
		s.doc.Commit(res.Root)
		return Outcome{Root: res.Root, Incorporated: pending,
			Isolated: true, ErrorRegions: len(res.Errors), Stats: s.stats}
	} else if recovery.IsInfrastructure(ierr) {
		return Outcome{Err: ierr, Stats: s.stats}
	}
	// Tier 2: history-sensitive edit replay.
	rec := recovery.Parse(s.doc, func(d *document.Document) (*Node, error) {
		return s.parseOnce(ctx)
	})
	return Outcome{
		Root:           rec.Root,
		Clean:          rec.Clean,
		Incorporated:   rec.Incorporated,
		Unincorporated: rec.Unincorporated,
		Err:            rec.Err,
		Stats:          s.stats,
	}
}

// NodeSpan reports n's byte span in the current text. n must belong to the
// session's committed tree; ok is false when the node's entire yield has
// been edited away (or n has no terminal yield). Positions track pending
// edits, so a span stays valid while edits accumulate before the next Do.
func (s *Session) NodeSpan(n *Node) (offset, length int, ok bool) {
	return s.doc.NodeSpan(n)
}

// Subtree returns the smallest node in the committed tree whose span
// covers [offset, offset+length), descending through choice nodes via
// their first unfiltered alternative. It returns the root when no smaller
// node covers the range, and nil before the first successful Do (or when
// the range lies outside every node's span). The returned node is owned by
// the session's tree and must not be mutated.
func (s *Session) Subtree(offset, length int) *Node {
	n := s.doc.Root()
	if n == nil {
		return nil
	}
	if off, ln, ok := s.doc.NodeSpan(n); !ok || offset < off || offset+length > off+ln {
		return nil
	}
	if length < 1 {
		length = 1
	}
descend:
	for {
		kids := n.Kids
		if n.Kind == dag.KindChoice {
			// Alternatives cover the same span; narrow into the reading the
			// pipeline would embed.
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
			off, ln, ok := s.doc.NodeSpan(k)
			if ok && offset >= off && offset+length <= off+ln {
				n = k
				continue descend
			}
		}
		return n
	}
}
