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
//	out := s.Do(ctx) // out.Root: the parse dag; out.Err: e.g. a *ParseError
//	s.Edit(offset, removed, inserted)
//	out = s.Do(ctx) // incremental: reuses unmodified subtrees
//	out = s.Do(ctx, incremental.Tolerant()) // keeps syntax errors as error nodes
package incremental

import (
	"context"
	"fmt"
	"io"

	"iglr/internal/dag"
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

// FormatDagTo writes FormatDag's outline to w, one line per Write, and
// stops at the first write error, which it returns — so a writer that
// refuses bytes past a cap bounds the render.
func FormatDagTo(w io.Writer, l *Language, n *Node) error { return dag.FormatTo(w, l.def.Grammar, n) }

// ApplyFilter rewrites a dag with a dynamic syntactic filter, discarding
// losing interpretations (§4.1). It returns the new root and the number of
// interpretations discarded.
func ApplyFilter(root *Node, f Filter) (*Node, int) { return disambig.Apply(root, f) }

// Prefer builds a filter keeping interpretations that satisfy pred.
func Prefer(pred func(*Node) bool) Filter { return disambig.Prefer(pred) }

// Operators applies precedence/associativity dynamically to expression
// dags parsed with a raw ambiguous grammar.
type Operators = disambig.Operators

// LanguageDef defines a language from sources. DefineLanguage compiles it;
// attach a semantic-disambiguation configuration to the result with
// (*Language).WithSemantics.
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
}

// Language is a compiled language definition. It is immutable: every
// method is read-only and WithSemantics returns a new value, so one
// *Language may be shared by any number of concurrent Sessions (and by
// the engine package's parallel drivers).
type Language struct {
	def *langs.Language
	sem *SemanticsConfig
}

// DefineLanguage compiles a language definition. Every call builds the LR
// tables and the lexer DFA, so build a language once and share the
// immutable result, or ship it as a compiled artifact (SaveCompiled,
// LoadCompiled, cmd/langc) to skip the build. A rejected definition, or a
// panic during construction, is returned as a *DefinitionError.
func DefineLanguage(d LanguageDef) (l *Language, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				e = fmt.Errorf("%v", r)
			}
			l, err = nil, &DefinitionError{Language: d.Name, Stage: "internal", Err: e}
		}
	}()
	b := &langs.Builder{
		Name:      d.Name,
		GramSrc:   d.Grammar,
		LexRules:  d.Lexer,
		TokenSyms: d.TokenSyms,
		Keywords:  d.Keywords,
		IdentRule: d.IdentRule,
		Options: lr.Options{
			Method:       d.Method,
			PreferShift:  d.PreferShift,
			NoPrecedence: d.NoPrecedence,
		},
	}
	def, err := b.Build()
	if err != nil {
		return nil, newDefinitionError(d.Name, err)
	}
	return &Language{def: def}, nil
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
// Ensemble language), on which the IGLR parser makes the same shifts and
// reductions as the §3.2 deterministic parser.
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
	resolver *semantics.Resolver
	stats    ParseStats // snapshot of the most recent parse
	// readWork is the work the latest read (NodeSpan, Subtree,
	// Diagnostics, ErrorNodes) did: tree nodes visited plus tokens
	// scanned, the per-read counterpart of the document's LastSpliceWork.
	readWork int
	// isolateWork is the latest Do(Tolerant())'s isolate.Result.Work.
	isolateWork int
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
func (s *Session) SetBudget(b Budget) { s.parser.Budget = b }

// BudgetLimits returns the session's current resource budget.
func (s *Session) BudgetLimits() Budget { return s.parser.Budget }

// Text returns the current document text.
func (s *Session) Text() string { return s.doc.Text() }

// Len returns the document length in bytes.
func (s *Session) Len() int { return s.doc.Len() }

// Tree returns the last committed parse dag (nil before the first
// successful Do).
func (s *Session) Tree() *Node { return s.doc.Root() }

// Edit applies a text modification. Any number of edits may be batched
// before the next Do.
func (s *Session) Edit(offset, removed int, inserted string) {
	s.doc.Replace(offset, removed, inserted)
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
	root, err := s.parser.ParseContext(ctx, s.doc.Stream())
	s.stats = s.parser.Stats
	return root, err
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

// Stats returns the IGLR parser's work counters for the most recent parse.
// The counters are snapshotted when a parse finishes (successfully or
// not), so the value is stable even if another parse is later started.
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
