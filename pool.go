package incremental

import (
	"sync"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/iglr"
	"iglr/internal/lexer"
)

// Pool recycles the expensive per-session machinery — the IGLR parser's
// GSS arenas and sharer tables and the document's token and terminal
// arrays — across many single-shot sessions of one language. A batch
// driver parsing thousands of files (see engine) pays those allocations
// once per worker instead of once per file.
//
// The dag arena is deliberately NOT pooled: parse trees escape to the
// caller through results, so their arena cannot be recycled underneath
// them. Everything the pool recycles is scrubbed of dag pointers first
// (iglr.Parser.Scrub, document.ReleaseBuffers), so a parked item never
// pins a retired tree.
//
// A Pool is safe for concurrent use; each Session it yields remains
// single-goroutine.
type Pool struct {
	lang  *Language
	items sync.Pool
}

type poolItem struct {
	parser *iglr.Parser
	toks   []lexer.Token
	terms  []*dag.Node
}

// NewPool creates a session pool over one shared language.
func NewPool(lang *Language) *Pool {
	return &Pool{lang: lang}
}

// NewSession creates a session over source, reusing recycled machinery
// when available. Behavior is identical to incremental.NewSession with the
// same options; return the session with Recycle when done.
func (p *Pool) NewSession(source string, opts ...SessionOption) *Session {
	it, _ := p.items.Get().(*poolItem)
	if it == nil {
		return NewSession(p.lang, source, opts...)
	}
	s := &Session{lang: p.lang, parser: it.parser}
	docOpts := document.Options{Toks: it.toks, Terms: it.terms}
	*it = poolItem{}
	for _, o := range opts {
		o(s)
	}
	s.doc = p.lang.def.NewDocumentOpts(source, docOpts)
	return s
}

// Recycle scrubs the session's machinery and parks it for reuse. The
// session must not be used afterwards; its parse trees remain valid (they
// live in the session's own arena, which is not recycled). Never recycle a
// session whose parse panicked — the parser state may be mid-flight.
func (p *Pool) Recycle(s *Session) {
	if s == nil || s.lang != p.lang || s.parser == nil {
		return
	}
	it := &poolItem{parser: s.parser}
	it.parser.Scrub()
	it.parser.Budget = Budget{}
	it.parser.Stats = iglr.Stats{}
	if s.doc != nil {
		it.toks, it.terms = s.doc.ReleaseBuffers()
	}
	*s = Session{} // poison: any further use fails fast
	p.items.Put(it)
}
