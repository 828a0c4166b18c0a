package grammar

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse reads a yacc-like grammar description and builds the grammar.
//
// Syntax:
//
//	%token NAME ...          declare terminals
//	%left  SYM ...           precedence level, left associative
//	%right SYM ...           precedence level, right associative
//	%nonassoc SYM ...        precedence level, non-associative
//	%start NAME              start symbol
//
//	Lhs : A 'lit' B          productions; alternatives with '|';
//	    | C %prec SYM        optional %prec override;
//	    |                    empty alternative = epsilon;
//	    ;                    terminated by ';'
//
// A right-hand-side name may carry a sequence suffix: X* (zero or more X)
// or X+ (one or more X); these synthesize associative sequence nonterminals
// whose structure the committed dag stores balanced (paper §3.4). Quoted names
// ('+' or "while") are implicitly declared terminals. Comments run from
// "//" or "#" to end of line, or between "/*" and "*/".
func Parse(src string) (*Grammar, error) {
	p := &dslParser{b: NewBuilder(), src: src, line: 1}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.b.Build()
}

// MustParse is Parse but panics on error; intended for static grammar
// definitions in language packages and tests.
func MustParse(src string) *Grammar {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

type dslParser struct {
	b       *Builder
	src     string
	pos     int
	line    int
	tok     string // current token; "" at EOF
	pending []string
}

// unread pushes tok back so the next call to next returns it, and restores
// cur as the current token.
func (p *dslParser) unread(cur string) {
	p.pending = append(p.pending, p.tok)
	p.tok = cur
}

func (p *dslParser) errf(format string, args ...any) error {
	return &Error{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// next advances to the next token. Token kinds: "%token"-style directives,
// identifiers (possibly with * or + suffix), quoted literals, and the
// punctuation ":", "|", ";".
func (p *dslParser) next() error {
	if n := len(p.pending); n > 0 {
		p.tok = p.pending[n-1]
		p.pending = p.pending[:n-1]
		return nil
	}
	src := p.src
	for p.pos < len(src) {
		c := src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '/' && p.pos+1 < len(src) && src[p.pos+1] == '/',
			c == '#':
			for p.pos < len(src) && src[p.pos] != '\n' {
				p.pos++
			}
		case c == '/' && p.pos+1 < len(src) && src[p.pos+1] == '*':
			end := strings.Index(src[p.pos+2:], "*/")
			if end < 0 {
				return p.errf("unterminated comment")
			}
			p.line += strings.Count(src[p.pos:p.pos+2+end+2], "\n")
			p.pos += 2 + end + 2
		default:
			goto scan
		}
	}
	p.tok = ""
	return nil

scan:
	start := p.pos
	c := src[p.pos]
	switch {
	case c == ':' || c == '|' || c == ';':
		p.pos++
		p.tok = string(c)
	case c == '\'' || c == '"':
		quote := c
		p.pos++
		for p.pos < len(src) && src[p.pos] != quote {
			if src[p.pos] == '\\' {
				p.pos++
			}
			if p.pos < len(src) && src[p.pos] == '\n' {
				return p.errf("newline in quoted symbol")
			}
			p.pos++
		}
		if p.pos >= len(src) {
			return p.errf("unterminated quoted symbol")
		}
		p.pos++
		p.tok = src[start:p.pos]
	case c == '%':
		p.pos++
		for p.pos < len(src) && isIdentChar(rune(src[p.pos])) {
			p.pos++
		}
		p.tok = src[start:p.pos]
	case isIdentStart(rune(c)):
		for p.pos < len(src) && isIdentChar(rune(src[p.pos])) {
			p.pos++
		}
		// Optional sequence suffix.
		if p.pos < len(src) && (src[p.pos] == '*' || src[p.pos] == '+') {
			p.pos++
		}
		p.tok = src[start:p.pos]
	default:
		return p.errf("unexpected character %q", string(c))
	}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentChar(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (p *dslParser) run() error {
	if err := p.next(); err != nil {
		return err
	}
	for p.tok != "" {
		switch p.tok {
		case "%token":
			if err := p.directive(func(names []string) { p.b.Terminals(names...) }); err != nil {
				return err
			}
		case "%left":
			if err := p.directive(func(names []string) { p.b.Left(names...) }); err != nil {
				return err
			}
		case "%right":
			if err := p.directive(func(names []string) { p.b.Right(names...) }); err != nil {
				return err
			}
		case "%nonassoc":
			if err := p.directive(func(names []string) { p.b.Nonassoc(names...) }); err != nil {
				return err
			}
		case "%start":
			if err := p.next(); err != nil {
				return err
			}
			if p.tok == "" || isPunct(p.tok) || strings.HasPrefix(p.tok, "%") {
				return p.errf("%%start requires a symbol name")
			}
			p.b.Start(p.tok)
			if err := p.next(); err != nil {
				return err
			}
		default:
			if isPunct(p.tok) || strings.HasPrefix(p.tok, "%") {
				return p.errf("unexpected %q at top level", p.tok)
			}
			if err := p.rule(); err != nil {
				return err
			}
		}
	}
	return nil
}

func isPunct(tok string) bool { return tok == ":" || tok == "|" || tok == ";" }

// directive collects symbol names until the next directive, punctuation, or
// a name followed by ":" (start of a rule).
func (p *dslParser) directive(apply func([]string)) error {
	if err := p.next(); err != nil {
		return err
	}
	var names []string
	for p.tok != "" && !isPunct(p.tok) && !strings.HasPrefix(p.tok, "%") {
		name := p.tok
		if err := p.next(); err != nil {
			return err
		}
		if p.tok == ":" {
			// name is actually the LHS of the first rule: push the ':' back
			// and stop the directive just before it.
			p.unread(name)
			break
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return p.errf("directive requires at least one symbol")
	}
	apply(names)
	return nil
}

// rule parses "Lhs : alt | alt ... ;".
func (p *dslParser) rule() error {
	lhs := p.tok
	if strings.HasSuffix(lhs, "*") || strings.HasSuffix(lhs, "+") {
		return p.errf("sequence suffix not allowed on left-hand side %q", lhs)
	}
	if err := p.next(); err != nil {
		return err
	}
	if p.tok != ":" {
		return p.errf("expected ':' after rule name %q, got %q", lhs, p.tok)
	}
	if err := p.next(); err != nil {
		return err
	}
	for {
		var rhs []string
		prec := ""
		for p.tok != "" && !isPunct(p.tok) {
			if p.tok == "%prec" {
				if err := p.next(); err != nil {
					return err
				}
				if p.tok == "" || isPunct(p.tok) {
					return p.errf("%%prec requires a symbol")
				}
				prec = p.tok
				if err := p.next(); err != nil {
					return err
				}
				continue
			}
			if strings.HasPrefix(p.tok, "%") {
				return p.errf("unexpected directive %q inside rule", p.tok)
			}
			rhs = append(rhs, p.tok)
			if err := p.next(); err != nil {
				return err
			}
		}
		p.b.RuleWithPrec(lhs, prec, rhs...)
		switch p.tok {
		case "|":
			if err := p.next(); err != nil {
				return err
			}
		case ";":
			return p.next()
		case ":":
			return p.errf("missing ';' before new rule")
		default:
			return p.errf("unterminated rule %q (missing ';')", lhs)
		}
	}
}
