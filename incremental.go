// Package incremental (import path "iglr") is the public API of a
// reproduction of Wagner & Graham, "Incremental Analysis of Real
// Programming Languages" (PLDI 1997). It provides:
//
//   - language definition from a yacc-like grammar and regex token rules,
//     with conflicts retained for generalized LR parsing;
//   - batch and incremental GLR parsing into abstract parse dags, which
//     represent unresolved syntactic ambiguity explicitly;
//   - disambiguation at every stage: static table filters (precedence,
//     associativity, prefer-shift), dynamic syntactic filters, and
//     semantic filters driven by typedef/namespace analysis;
//   - self-versioning documents with incremental lexing, history-based
//     error recovery, and balanced sequence storage.
//
// The typical flow is:
//
//	lang, _ := incremental.DefineLanguage(def)
//	s := incremental.NewSession(lang, source)
//	tree, _ := s.Parse()
//	s.Edit(offset, removed, inserted)
//	tree, _ = s.Parse() // incremental: reuses unmodified subtrees
package incremental

import (
	"context"
	"errors"

	"iglr/internal/dag"
	"iglr/internal/detparse"
	"iglr/internal/disambig"
	"iglr/internal/document"
	"iglr/internal/grammar"
	"iglr/internal/guard"
	"iglr/internal/iglr"
	"iglr/internal/langs"
	"iglr/internal/langs/cppsub"
	"iglr/internal/langs/csub"
	"iglr/internal/langs/expr"
	"iglr/internal/langs/javasub"
	"iglr/internal/langs/lispsub"
	"iglr/internal/langs/lr2"
	"iglr/internal/langs/mod2sub"
	"iglr/internal/langs/scannerless"
	"iglr/internal/lexer"
	"iglr/internal/lr"
	"iglr/internal/recovery"
	"iglr/internal/semantics"
)

// Concurrency model: a compiled *Language is immutable and safe to share
// between any number of goroutines; Sessions (and the documents and parse
// dags they own) are single-goroutine. See DESIGN.md, "Concurrency model",
// and the engine package for a parallel multi-document driver.

// Core re-exported types. Aliases keep the internal packages' methods and
// let the pieces interoperate without copying.
type (
	// Node is an abstract-parse-dag node: a terminal, a production
	// instance, a symbol (choice) node holding alternative
	// interpretations, or a balanced-sequence node.
	Node = dag.Node
	// DagStats summarizes dag size versus the embedded disambiguated tree.
	DagStats = dag.Stats
	// ParseStats counts parser work (shifts, reductions, breakdowns, ...).
	ParseStats = iglr.Stats
	// Sym identifies a grammar symbol.
	Sym = grammar.Sym
	// LexRule defines one token kind by regular expression.
	LexRule = lexer.Rule
	// SemanticsConfig adapts semantic disambiguation to a language.
	SemanticsConfig = semantics.Config
	// SemanticsResult reports one resolution pass.
	SemanticsResult = semantics.Result
	// Reinterpreted records an ambiguous region whose interpretation
	// flipped between semantic passes (§4.2).
	Reinterpreted = semantics.ReinterpretedRegion
	// Filter is a dynamic syntactic disambiguation filter.
	Filter = disambig.Filter
	// RecoveryOutcome reports a history-based error-recovery run.
	RecoveryOutcome = recovery.Outcome
	// AppliedEdit is a recorded, revertible document edit.
	AppliedEdit = document.AppliedEdit
	// TableMethod selects the LR table construction algorithm.
	TableMethod = lr.Method
	// Budget bounds the resources a single parse may consume (GSS nodes
	// and links, dag arena nodes, interpretations per ambiguous region,
	// wall-clock time). The zero value is unlimited. Configure it per
	// session with WithBudget; see DESIGN.md, "Failure model & resource
	// budgets".
	Budget = guard.Budget
	// BudgetError reports the resource whose budget a parse exceeded. The
	// failed parse leaves the session's committed tree intact. Every
	// BudgetError matches ErrBudget via errors.Is.
	BudgetError = guard.BudgetError
)

// ErrBudget is matched by every *BudgetError via errors.Is, for callers
// who only care that a resource budget tripped, not which one.
var ErrBudget = guard.ErrBudget

// Table construction methods.
const (
	LALR = lr.LALR
	SLR  = lr.SLR
	LR1  = lr.LR1
)

// Measure computes space statistics for a dag — the paper's Table 1 /
// Figure 4 metric.
func Measure(root *Node) DagStats { return dag.Measure(root) }

// CountParses returns the number of distinct parse trees a dag encodes.
func CountParses(root *Node) int { return iglr.CountParses(root) }

// FormatDag renders a dag as an indented outline.
func FormatDag(l *Language, n *Node) string { return dag.Format(l.def.Grammar, n) }

// ApplyFilter rewrites a dag with a dynamic syntactic filter, discarding
// losing interpretations (§4.1). It returns the new root and the number of
// interpretations discarded.
func ApplyFilter(root *Node, f Filter) (*Node, int) { return disambig.Apply(root, f) }

// Prefer builds a filter keeping interpretations that satisfy pred.
func Prefer(pred func(*Node) bool) Filter { return disambig.Prefer(pred) }

// Operators applies precedence/associativity dynamically to expression
// dags parsed with a raw ambiguous grammar.
type Operators = disambig.Operators

// LanguageDef defines a language from sources. A def can be filled in
// directly or assembled with functional Options (see DefineLanguage); both
// spellings are equivalent.
type LanguageDef struct {
	Name string
	// Grammar is a yacc-like grammar (see internal/grammar.Parse for the
	// syntax, including X* / X+ associative sequences).
	Grammar string
	// Lexer lists the token rules; earlier rules win ties.
	Lexer []LexRule
	// TokenSyms maps lexer rule names to grammar terminal names.
	TokenSyms map[string]string
	// Keywords maps identifier lexemes to keyword terminal names;
	// IdentRule names the identifier rule they are recognized under.
	Keywords  map[string]string
	IdentRule string
	// Method selects the table algorithm (default LALR, as in the paper).
	Method TableMethod
	// PreferShift resolves remaining shift/reduce conflicts statically.
	PreferShift bool
	// NoPrecedence disables precedence/associativity resolution.
	NoPrecedence bool
	// Semantics, when non-nil, is attached to the compiled language as its
	// semantic-disambiguation configuration (§4.2).
	Semantics *SemanticsConfig

	// noCache bypasses the compiled-language cache (set via WithoutCache).
	noCache bool
	// compiledCacheDir overrides the disk-artifact cache directory (set via
	// WithCompiledCache); empty means the per-user default.
	compiledCacheDir string
	// noDiskCache disables the disk-artifact layer only (set via
	// WithoutCompiledCache); the memory layer still applies.
	noDiskCache bool
}

// Language is a compiled language definition. It is immutable: every
// method is read-only and WithSemantics returns a new value, so one
// *Language may be shared by any number of concurrent Sessions (and by
// the engine package's parallel drivers).
type Language struct {
	def *langs.Language
	sem *SemanticsConfig
}

// DefineLanguage compiles a language definition, after applying any
// options to (a copy of) d.
//
// Compiled languages are cached by definition content: a second call with
// an identical definition returns the already-built tables instead of
// rebuilding them, so high-traffic services may call DefineLanguage per
// request without paying LR construction each time. WithoutCache opts out;
// LanguageCacheStats observes the cache.
func DefineLanguage(d LanguageDef, opts ...Option) (*Language, error) {
	for _, o := range opts {
		o(&d)
	}
	def, err := compileDef(d)
	if err != nil {
		return nil, err
	}
	l := &Language{def: def}
	if d.Semantics != nil {
		cfg := *d.Semantics
		l.sem = &cfg
	}
	return l, nil
}

// WithSemantics returns a copy of l with the semantic-disambiguation
// configuration attached. The receiver is not modified — languages are
// immutable so they can be shared across concurrent sessions.
func (l *Language) WithSemantics(cfg SemanticsConfig) *Language {
	out := *l
	out.sem = &cfg
	return &out
}

// Name returns the language name.
func (l *Language) Name() string { return l.def.Name }

// Conflicts returns the number of unresolved parse-table conflicts (GLR
// fork points).
func (l *Language) Conflicts() int { return len(l.def.Table.Conflicts()) }

// Deterministic reports whether the table is conflict-free.
func (l *Language) Deterministic() bool { return l.def.Table.Deterministic() }

// Sym resolves a grammar symbol by name (panics on unknown names).
func (l *Language) Sym(name string) Sym { return l.def.Sym(name) }

// SymName returns the display name of a symbol.
func (l *Language) SymName(s Sym) string { return l.def.Grammar.Name(s) }

// Bundled languages.

// ExprLanguage returns an arithmetic expression language disambiguated by
// static precedence filters.
func ExprLanguage() *Language { return &Language{def: expr.Lang()} }

// AmbiguousExprLanguage returns the raw ambiguous expression grammar; use
// Operators filters to disambiguate dynamically.
func AmbiguousExprLanguage() *Language { return &Language{def: expr.AmbiguousLang()} }

// CSubset returns a C subset with the Figure 1 typedef ambiguities,
// semantic disambiguation preconfigured.
func CSubset() *Language {
	l := csub.Lang()
	cfg := langs.CStyleSemantics(l)
	return &Language{def: l, sem: &cfg}
}

// CPPSubset returns a C++ subset (the paper's running example), semantic
// disambiguation preconfigured and the dangling else resolved by a static
// prefer-shift filter.
func CPPSubset() *Language {
	l := cppsub.Lang()
	cfg := langs.CStyleSemantics(l)
	return &Language{def: l, sem: &cfg}
}

// LR2Language returns the paper's Figure 7 LR(2) grammar.
func LR2Language() *Language { return &Language{def: lr2.Lang()} }

// JavaSubset returns a Java subset whose array-declaration syntax needs
// LR(2)-style forking (`T[] x;` vs `a[i] = v;`), with precedence and
// prefer-shift static filters handling the rest.
func JavaSubset() *Language { return &Language{def: javasub.Lang()} }

// LispSubset returns an s-expression language — nested associative
// sequences throughout, the extreme case for balanced storage (§3.4).
func LispSubset() *Language { return &Language{def: lispsub.Lang()} }

// Modula2Subset returns a conflict-free Modula-2 subset (the first
// Ensemble language), suitable for both the deterministic and the GLR
// incremental parsers.
func Modula2Subset() *Language { return &Language{def: mod2sub.Lang()} }

// ScannerlessLanguage returns a character-level (scannerless) GLR language
// in which identifiers/numbers are associative character sequences and the
// keyword/identifier prefix problem is carried as GLR non-determinism.
func ScannerlessLanguage() *Language { return &Language{def: scannerless.Lang()} }

// Session couples a document with an incremental parser. A Session (and
// the document and parse dags it owns) belongs to one goroutine; create
// one Session per concurrent document over a shared *Language.
type Session struct {
	lang     *Language
	doc      *document.Document
	parser   *iglr.Parser
	det      *detparse.Parser // non-nil when UseDeterministic succeeded
	resolver *semantics.Resolver
	stats    ParseStats // snapshot of the most recent IGLR parse
	budget   Budget

	// spareDet is a recycled deterministic parser donated by a Pool,
	// activated only if the caller asks via UseDeterministic.
	spareDet *detparse.Parser
}

// SessionOption configures a Session at creation time.
type SessionOption func(*Session)

// WithBudget bounds every parse the session runs (see Budget). A tripped
// budget aborts that parse with a *BudgetError — except the ambiguity
// budget, which degrades: the region is pruned to its statically preferred
// interpretation and the parse continues (BudgetPruned in Stats counts
// prunes; DagStats.BudgetPruned locates them).
func WithBudget(b Budget) SessionOption {
	return func(s *Session) { s.SetBudget(b) }
}

// NewSession creates an editing session over source.
func NewSession(lang *Language, source string, opts ...SessionOption) *Session {
	// The parser exists before the options run so options like WithBudget
	// and WithTrace can configure it; the document is built last.
	s := &Session{
		lang:   lang,
		parser: iglr.New(lang.def.Table),
	}
	for _, o := range opts {
		o(s)
	}
	s.doc = lang.def.NewDocument(source)
	return s
}

// SetBudget replaces the session's resource budget. It applies from the
// next parse; the zero Budget removes all limits.
func (s *Session) SetBudget(b Budget) {
	s.budget = b
	s.parser.Budget = b
	if s.det != nil {
		s.det.Budget = b
	}
}

// BudgetLimits returns the session's current resource budget.
func (s *Session) BudgetLimits() Budget { return s.budget }

// UseDeterministic switches the session to the deterministic incremental
// parser (§3.2 baseline). It fails if the language's table has conflicts.
func (s *Session) UseDeterministic() error {
	if s.spareDet != nil {
		// A pool donated an already-built parser for this same table.
		s.det, s.spareDet = s.spareDet, nil
		s.det.Budget = s.budget
		return nil
	}
	p, err := detparse.New(s.lang.def.Table)
	if err != nil {
		return err
	}
	p.Budget = s.budget
	s.det = p
	return nil
}

// Text returns the current document text.
func (s *Session) Text() string { return s.doc.Text() }

// Len returns the document length in bytes.
func (s *Session) Len() int { return s.doc.Len() }

// Tree returns the last committed parse dag (nil before the first Parse).
func (s *Session) Tree() *Node { return s.doc.Root() }

// Edit applies a text modification. Any number of edits may be batched
// before the next Parse.
func (s *Session) Edit(offset, removed int, inserted string) {
	s.doc.Replace(offset, removed, inserted)
}

// Parse (re)parses the document incrementally, committing on success. The
// previous tree is retained on failure; the returned error carries the
// line/column of the offending token (as a *ParseError).
//
// Deprecated: use Do, the context-first session API. Parse is equivalent
// to Do(nil) with Root/Err unpacked.
func (s *Session) Parse() (*Node, error) {
	return s.ParseContext(nil)
}

// ParseContext is Parse with cooperative cancellation: the parser polls
// ctx periodically and abandons the parse with an error satisfying
// errors.Is(err, ctx.Err()) once the context is done. The document and its
// committed tree are left exactly as before the call, so a cancelled parse
// can simply be retried. A nil ctx disables the checks.
//
// Deprecated: use Do, the context-first session API. ParseContext is
// equivalent to Do(ctx) with Root/Err unpacked.
func (s *Session) ParseContext(ctx context.Context) (*Node, error) {
	out := s.Do(ctx)
	return out.Root, out.Err
}

// isDetSyntax reports whether err is a deterministic-parser syntax error.
// Kept out of parseOnce's hot path: the errors.As target escapes, and the
// zero-allocation clean-reparse guarantee must hold.
func isDetSyntax(err error) bool {
	var de *detparse.SyntaxError
	return errors.As(err, &de)
}

// locate attaches position information to a parser error.
func (s *Session) locate(err error) error {
	se, ok := err.(*iglr.SyntaxError)
	if !ok {
		return err
	}
	off := s.doc.SignificantTokenOffset(se.TokenIndex)
	line, col := s.doc.Position(off)
	return &ParseError{Line: line, Col: col, Offset: off, Expected: se.Expected, Inner: err}
}

func (s *Session) parseOnce(ctx context.Context) (*Node, error) {
	// A cold parse (nothing committed yet) consumes exactly the significant
	// terminals plus EOF, so the deterministic parser can skip the
	// incremental stream machinery and run its batch kernel.
	cold := s.doc.Root() == nil
	if s.det != nil {
		var root *Node
		var err error
		if cold {
			root, err = s.det.ParseBatch(ctx, s.doc.Terminals(), s.doc.EOFNode(), s.doc.Arena())
		} else {
			root, err = s.det.ParseContext(ctx, s.doc.Stream())
		}
		if err == nil || !isDetSyntax(err) {
			return root, err
		}
		// Syntax error under the deterministic parser: hand the document to
		// the GLR parser, whose failure carries the same detail but is the
		// one the error-isolation machinery consumes. Infrastructure
		// failures (budget, cancellation) are not re-run.
	}
	root, err := s.parser.ParseContext(ctx, s.doc.Stream())
	s.stats = s.parser.Stats
	return root, err
}

// ParseWithRecovery parses with two-tier error recovery. Tier 1 (§4.3
// extended): a syntax error never reverts the user's text — the damage is
// confined to the smallest enclosing sequence region, the skipped tokens
// are kept verbatim under error nodes in the committed tree, and
// Diagnostics reports them. Tier 2, only when isolation cannot bound the
// damage: the paper's history-sensitive replay, where failing edits are
// reverted and reported as unincorporated. Infrastructure failures
// (ErrBudget, cancellation) abort with pending edits intact and trigger
// neither tier.
//
// Deprecated: use Do with the Tolerant option, which reports the same
// result as an Outcome.
func (s *Session) ParseWithRecovery() RecoveryOutcome {
	return s.ParseWithRecoveryContext(nil)
}

// ParseWithRecoveryContext is ParseWithRecovery with cooperative
// cancellation (see ParseContext).
//
// Deprecated: use Do with the Tolerant option, which reports the same
// result as an Outcome.
func (s *Session) ParseWithRecoveryContext(ctx context.Context) RecoveryOutcome {
	out := s.Do(ctx, Tolerant())
	return RecoveryOutcome{
		Root:           out.Root,
		Incorporated:   out.Incorporated,
		Unincorporated: out.Unincorporated,
		Clean:          out.Clean,
		Isolated:       out.Isolated,
		ErrorRegions:   out.ErrorRegions,
		Err:            out.Err,
	}
}

// Resolve runs semantic disambiguation (§4.2) over the committed tree with
// the language's configuration. Filter attributes on losing alternatives
// are recomputed; the dag itself is unchanged, so decisions reverse
// automatically when bindings change.
func (s *Session) Resolve() SemanticsResult {
	res, _ := s.ResolveTracked()
	return res
}

// ResolveTracked is Resolve plus the §4.2 re-interpretation report: the
// ambiguous regions whose reading flipped since the previous pass (e.g.
// after a typedef was removed), located via the resolver's use-site index
// rather than a tree search.
func (s *Session) ResolveTracked() (SemanticsResult, []Reinterpreted) {
	if s.lang.sem == nil || s.doc.Root() == nil {
		return SemanticsResult{}, nil
	}
	if s.resolver == nil {
		s.resolver = semantics.NewResolver(*s.lang.sem)
	}
	return s.resolver.Resolve(s.doc.Root())
}

// UseSites returns the ambiguous regions whose interpretation depends on
// the given identifier, as of the last Resolve.
func (s *Session) UseSites(name string) []*Node {
	if s.resolver == nil {
		return nil
	}
	return s.resolver.UseSites(name)
}

// Stats returns the work counters of the most recent IGLR parse. The
// counters are snapshotted when a parse finishes (successfully or not), so
// the value is stable even if another parse is later started.
func (s *Session) Stats() ParseStats { return s.stats }

// LexErrors returns the number of lexically invalid tokens currently in
// the document.
func (s *Session) LexErrors() int { return s.doc.LexErrorCount }

// Relexed returns the token count rescanned by the most recent edit.
func (s *Session) Relexed() int { return s.doc.LastRelexed }

// Trace installs a parser trace callback (the Appendix B facility);
// pass nil to disable.
//
// Trace writes the parser's callback field unsynchronized, so it must be
// called from the goroutine that runs the session's parses — never after
// the session has been handed to another goroutine (e.g. a daemon worker
// shard) that may be parsing concurrently. To trace a session that will be
// handed off, install the callback at construction with WithTrace.
func (s *Session) Trace(f func(format string, args ...any)) { s.parser.Trace = f }

// WithTrace installs a parser trace callback at construction time — the
// race-safe spelling of Session.Trace for sessions that are created on one
// goroutine and then handed to another (a worker shard, an engine pool):
// the callback is in place before the session is published, so no
// goroutine ever observes it being written. The callback itself must be
// safe for whatever goroutine runs the parses.
func WithTrace(f func(format string, args ...any)) SessionOption {
	return func(s *Session) { s.parser.Trace = f }
}
