// Package langs bundles the pieces that define a language for the
// incremental analysis pipeline: grammar, lexical specification, parse
// table, and the token→terminal mapping. Subpackages provide concrete
// languages: an arithmetic expression language (expr), subsets of C (csub)
// and C++ (cppsub) exhibiting the paper's typedef ambiguity, and the LR(2)
// grammar of Figure 7 (lr2).
package langs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"sync"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/grammar"
	"iglr/internal/lexer"
	"iglr/internal/lr"
)

// Language is a complete language definition. All fields are populated by
// the Builder and immutable afterwards: the grammar's analyses are
// precomputed, the parse table is never written after construction, the
// lexer DFA is read-only, and Map is a closure over frozen lookup tables.
// A *Language is therefore safe to share between any number of concurrent
// sessions/documents.
type Language struct {
	Name    string
	Grammar *grammar.Grammar
	Spec    *lexer.Spec
	Table   *lr.Table
	Map     document.TokenMapper
	// Tokens is the frozen token→terminal mapping data Map closes over; it
	// exists as data (not only as a closure) so compiled language artifacts
	// can serialize it.
	Tokens TokenMap
	// Hash is the content hash of the definition this language was compiled
	// from (HashDef); artifacts embed it so stale files self-invalidate.
	Hash [32]byte
}

// TokenMap is the token→terminal mapping in data form.
type TokenMap struct {
	// RuleSyms maps a lexer rule index to its grammar terminal, or
	// grammar.InvalidSym when the rule has no mapping.
	RuleSyms []grammar.Sym
	// Keywords maps exact lexeme text of the IdentRule to keyword terminals.
	Keywords map[string]grammar.Sym
	// IdentRule is the rule index whose lexemes consult Keywords, or -1.
	IdentRule int
}

// Mapper returns the TokenMapper closure over the frozen mapping.
func (m TokenMap) Mapper() document.TokenMapper {
	return func(rule int, text string) grammar.Sym {
		if rule == m.IdentRule {
			if s, ok := m.Keywords[text]; ok {
				return s
			}
		}
		if rule >= 0 && rule < len(m.RuleSyms) {
			if s := m.RuleSyms[rule]; s != grammar.InvalidSym {
				return s
			}
		}
		return grammar.ErrorSym
	}
}

// NewDocument creates a document over src for this language.
func (l *Language) NewDocument(src string) *document.Document {
	return document.New(l.Spec, l.Grammar, l.Map, src)
}

// NewDocumentInArena is NewDocument with the caller's node arena — for
// scratch documents whose trees get spliced into another document's dag.
func (l *Language) NewDocumentInArena(a *dag.Arena, src string) *document.Document {
	return document.NewInArena(a, l.Spec, l.Grammar, l.Map, src)
}

// NewDocumentOpts is NewDocument with batch options (donated buffers).
func (l *Language) NewDocumentOpts(src string, opts document.Options) *document.Document {
	return document.NewOpts(l.Spec, l.Grammar, l.Map, src, opts)
}

// Sym resolves a grammar symbol by name, panicking if missing (languages
// are static definitions, so a miss is a programming error).
func (l *Language) Sym(name string) grammar.Sym {
	s := l.Grammar.Lookup(name)
	if s == grammar.InvalidSym {
		panic("langs: unknown symbol " + name + " in " + l.Name)
	}
	return s
}

// BuildError reports which pipeline stage rejected a language definition:
// "grammar" (DSL parse or grammar analysis), "lexer" (token rule
// compilation), "table" (LR construction), or "tokens" (the token→terminal
// mapping).
type BuildError struct {
	Stage string
	Err   error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("langs: %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the stage's underlying error.
func (e *BuildError) Unwrap() error { return e.Err }

func stageErr(stage, format string, args ...any) *BuildError {
	return &BuildError{Stage: stage, Err: fmt.Errorf(format, args...)}
}

// Builder assembles a Language from sources, caching the result.
type Builder struct {
	Name     string
	GramSrc  string
	LexRules []lexer.Rule
	Options  lr.Options
	// Keywords maps exact lexeme text of the IdentRule to keyword
	// terminals, so keywords need no dedicated lexer rules.
	Keywords  map[string]string
	IdentRule string
	TokenSyms map[string]string // lexer rule name → grammar symbol name

	once sync.Once
	lang *Language
	err  error
}

// Lang builds (once) and returns the language, panicking on error;
// intended for the static bundled-language definitions.
func (b *Builder) Lang() *Language {
	l, err := b.Build()
	if err != nil {
		panic(err)
	}
	return l
}

// Build builds (once) and returns the language. Concurrent calls are safe;
// all callers observe the same *Language or the same error (each is
// wrapped in a *BuildError identifying the failing stage).
func (b *Builder) Build() (*Language, error) {
	b.once.Do(func() { b.lang, b.err = b.build() })
	return b.lang, b.err
}

func (b *Builder) build() (*Language, error) {
	g, err := grammar.Parse(b.GramSrc)
	if err != nil {
		return nil, &BuildError{Stage: "grammar", Err: err}
	}
	spec, err := lexer.NewSpec(b.LexRules)
	if err != nil {
		return nil, &BuildError{Stage: "lexer", Err: err}
	}
	tbl, err := lr.Build(g, b.Options)
	if err != nil {
		return nil, &BuildError{Stage: "table", Err: err}
	}
	// Precompute rule→symbol mapping.
	bySymName := func(name string) (grammar.Sym, error) {
		s := g.Lookup(name)
		if s == grammar.InvalidSym {
			return s, stageErr("tokens", "token mapping references unknown symbol %s", name)
		}
		return s, nil
	}
	ruleSyms := make([]grammar.Sym, spec.NumRules())
	for i := range ruleSyms {
		ruleSyms[i] = grammar.InvalidSym
	}
	for ruleName, symName := range b.TokenSyms {
		idx := spec.RuleIndex(ruleName)
		if idx < 0 {
			return nil, stageErr("tokens", "token mapping references unknown lexer rule %s", ruleName)
		}
		s, err := bySymName(symName)
		if err != nil {
			return nil, err
		}
		ruleSyms[idx] = s
	}
	kw := map[string]grammar.Sym{}
	for text, symName := range b.Keywords {
		s, err := bySymName(symName)
		if err != nil {
			return nil, err
		}
		kw[text] = s
	}
	identIdx := -1
	if b.IdentRule != "" {
		identIdx = spec.RuleIndex(b.IdentRule)
		if identIdx < 0 {
			return nil, stageErr("tokens", "IdentRule %s not in lexer spec", b.IdentRule)
		}
	}
	tm := TokenMap{RuleSyms: ruleSyms, Keywords: kw, IdentRule: identIdx}
	return &Language{
		Name:    b.Name,
		Grammar: g,
		Spec:    spec,
		Table:   tbl,
		Map:     tm.Mapper(),
		Tokens:  tm,
		Hash:    b.Hash(),
	}, nil
}

// Hash returns the content hash of the builder's definition (HashDef over
// its fields).
func (b *Builder) Hash() [32]byte {
	return HashDef(b.Name, b.GramSrc, b.LexRules, b.TokenSyms, b.Keywords, b.IdentRule, b.Options)
}

// HashDef hashes every field that influences language compilation into a
// canonical content key: the memory cache uses it to deduplicate identical
// definitions, and compiled artifacts embed it so a stale file (any edit to
// the grammar, lexer rules, token mapping, or table options) self-invalidates.
// Map fields are serialized in sorted order; every string is length-prefixed
// so field boundaries cannot collide.
func HashDef(name, gramSrc string, rules []lexer.Rule, tokenSyms, keywords map[string]string, identRule string, opts lr.Options) [32]byte {
	h := sha256.New()
	hashStr(h, name)
	hashStr(h, gramSrc)
	hashInt(h, len(rules))
	for _, r := range rules {
		hashStr(h, r.Name)
		hashStr(h, r.Pattern)
		if r.Skip {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	hashMap(h, tokenSyms)
	hashMap(h, keywords)
	hashStr(h, identRule)
	h.Write([]byte{byte(opts.Method)})
	flags := byte(0)
	if opts.PreferShift {
		flags |= 1
	}
	if opts.NoPrecedence {
		flags |= 2
	}
	if opts.PreferEarlierRule {
		flags |= 4
	}
	h.Write([]byte{flags})
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func hashStr(h hash.Hash, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

func hashInt(h hash.Hash, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
}

func hashMap(h hash.Hash, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hashInt(h, len(keys))
	for _, k := range keys {
		hashStr(h, k)
		hashStr(h, m[k])
	}
}
