package document

import (
	"fmt"
	"slices"

	"iglr/internal/dag"
	"iglr/internal/lexer"
)

// maxRun bounds the tokens of one run. A run is the unit an edit rewrites:
// a splice copies or moves at most about one run's tokens besides the
// damage, then moves the later headers' sums. 512 tokens (~24 KB of
// tokens, a few hundred lines of C) keeps that copy to a few µs, while a
// 16,000-line file needs only ~300 headers, so the header pass stays
// under a microsecond.
const maxRun = 512

// scanRun is the length of the runs a scan cuts. A scanned run is a
// window of the scan's array with no room past its end, so the first edit
// that grows it moves it into storage of its own (capacity maxRun); a
// window shorter than maxRun makes that a copy of one run rather than a
// split, which would also shift every later header in the run list.
const scanRun = maxRun * 3 / 4

// run is a bounded piece of the document's token stream: the unit of
// relative token positions. Only the headers hold absolute positions, so
// an edit's delta re-offsets the tokens after it in its own run and moves
// the later headers' sums, never every later token.
type run struct {
	// start, tok and term are the absolute byte offset of the run's first
	// byte, the index of its first token and the index of its first
	// significant terminal: prefix sums over the earlier runs' byte
	// lengths, token counts and terminal counts, kept by every splice.
	start, tok, term int
	// toks holds the run's tokens, 1 to maxRun of them, with offsets
	// relative to start.
	toks []lexer.Token
	// terms holds the terminal nodes of toks' significant (non-skip)
	// tokens, in order.
	terms []*dag.Node
	// own marks storage the run allocated itself; otherwise toks and terms
	// are windows of the arrays the document was scanned into.
	own bool
}

// adopt installs a whole token stream with absolute offsets as the
// document's runs: capacity-capped windows of scanRun tokens. One pass
// rewrites each token's offset relative to its run, derives the error
// count and the lookahead bound, and, when build is set, creates the
// significant tokens' terminals into terms[:0]; otherwise terms holds
// them already. The arrays become the document's own (ReleaseBuffers
// donates them).
func (d *Document) adopt(toks []lexer.Token, terms []*dag.Node, build bool) {
	if build {
		terms = terms[:0]
	}
	d.runs = make([]run, 0, (len(toks)+scanRun-1)/scanRun)
	d.LexErrorCount, d.maxLook = 0, 0
	term := 0
	for i := 0; i < len(toks); i += scanRun {
		end := min(i+scanRun, len(toks))
		r := run{start: toks[i].Offset, tok: i, term: term, toks: toks[i:end:end]}
		for k := range r.toks {
			t := &r.toks[k]
			if !t.Skip {
				if build {
					terms = append(terms, d.newTerminal(*t))
				}
				term++
			}
			if t.Type == lexer.ErrorType {
				d.LexErrorCount++
			}
			d.maxLook = max(d.maxLook, t.Lookahead)
			t.Offset -= r.start
		}
		d.runs = append(d.runs, r)
	}
	// Window the terminals once they stop moving: appends may reallocate.
	for i := range d.runs {
		end := term
		if i+1 < len(d.runs) {
			end = d.runs[i+1].term
		}
		d.runs[i].terms = terms[d.runs[i].term:end:end]
	}
	d.toks, d.terms = toks, terms
}

// numToks returns the number of tokens in the document.
func (d *Document) numToks() int {
	if len(d.runs) == 0 {
		return 0
	}
	r := &d.runs[len(d.runs)-1]
	return r.tok + len(r.toks)
}

// numTerms returns the number of significant terminals in the document.
func (d *Document) numTerms() int {
	if len(d.runs) == 0 {
		return 0
	}
	r := &d.runs[len(d.runs)-1]
	return r.term + len(r.terms)
}

// runOfTok returns the index of the run holding token i, for
// 0 ≤ i < numToks: a binary search over the headers' token sums.
func (d *Document) runOfTok(i int) int {
	lo, hi := 0, len(d.runs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if d.runs[h].tok <= i {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo - 1
}

// runOfTerm returns the index of the run holding terminal i, for
// 0 ≤ i < numTerms. Runs without terminals share their successor's sum,
// so the last run whose sum is ≤ i is the one that holds it.
func (d *Document) runOfTerm(i int) int {
	lo, hi := 0, len(d.runs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if d.runs[h].term <= i {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo - 1
}

// tokAt returns token i with its absolute offset.
func (d *Document) tokAt(i int) lexer.Token {
	r := &d.runs[d.runOfTok(i)]
	t := r.toks[i-r.tok]
	t.Offset += r.start
	return t
}

// termAt returns significant terminal i.
func (d *Document) termAt(i int) *dag.Node {
	r := &d.runs[d.runOfTerm(i)]
	return r.terms[i-r.term]
}

// termIndex returns the number of significant terminals before token i,
// the index its terminal has (or would have) in the terminal sequence.
func (d *Document) termIndex(i int) int {
	if i >= d.numToks() {
		return d.numTerms()
	}
	r := &d.runs[d.runOfTok(i)]
	k := r.term
	for _, t := range r.toks[:i-r.tok] {
		if !t.Skip {
			k++
		}
	}
	return k
}

// tokenView is the document's token stream as lexer.Damage reads it: At
// finds a token's run by binary search over the headers and adds the
// run's start to the token's relative offset.
type tokenView Document

func (v *tokenView) Len() int             { return (*Document)(v).numToks() }
func (v *tokenView) At(i int) lexer.Token { return (*Document)(v).tokAt(i) }

// appendToks appends tokens [i, j) to dst with offsets relative to base
// after adding shift to each absolute offset.
func (d *Document) appendToks(dst []lexer.Token, i, j, shift, base int) []lexer.Token {
	for ri := d.runOfTok(i); i < j; ri++ {
		r := &d.runs[ri]
		end := min(j, r.tok+len(r.toks))
		for _, t := range r.toks[i-r.tok : end-r.tok] {
			t.Offset += r.start + shift - base
			dst = append(dst, t)
		}
		i = end
	}
	return dst
}

// appendTerms appends significant terminals [i, j) to dst.
func (d *Document) appendTerms(dst []*dag.Node, i, j int) []*dag.Node {
	for ri := d.runOfTerm(i); i < j; ri++ {
		r := &d.runs[ri]
		end := min(j, r.term+len(r.terms))
		dst = append(dst, r.terms[i-r.term:end-r.term]...)
		i = end
	}
	return dst
}

// splice rewrites the runs for one edit: tokens [first, resume) give way
// to fresh (absolute offsets in the new text) and terminals [tlo, thi) to
// add, and the headers after the rewritten runs move by the edit's byte,
// token and terminal deltas. It returns the work it did: token and
// terminal slots written (copied, moved or re-offset) plus run headers
// visited, not counting the binary searches that locate runs.
//
// A damage inside one run that leaves it within the size bounds is
// spliced in place, after moving a scanned window that must grow into
// storage of its own. Otherwise the runs the damage spans — and a
// neighbour, when what is left would fall below a quarter of maxRun — are
// gathered around the damage and cut again into runs of at most maxRun
// tokens, so a paste yields many runs and a deletion across runs drops
// the ones between its ends.
func (d *Document) splice(first, resume int, fresh []lexer.Token, tlo, thi int, add []*dag.Node, delta int) (work int) {
	dTok, dTerm := len(fresh)-(resume-first), len(add)-(thi-tlo)
	ra := d.runOfTok(min(first, d.numToks()-1))
	rb := ra
	if resume > first {
		rb = d.runOfTok(resume - 1)
	}
	next := rb + 1 // first run after the rewritten ones
	if ra >= 0 && ra == rb {
		r := &d.runs[ra]
		i0, i1 := first-r.tok, resume-r.tok
		j0, j1 := tlo-r.term, thi-r.term
		nt, nm := len(r.toks)+dTok, len(r.terms)+dTerm
		if nt > 0 && nt <= maxRun && (nt >= maxRun/4 || len(d.runs) == 1) {
			for k := range fresh {
				fresh[k].Offset -= r.start
			}
			if nt <= cap(r.toks) && nm <= cap(r.terms) {
				r.toks = slices.Replace(r.toks, i0, i1, fresh...)
				r.terms = slices.Replace(r.terms, j0, j1, add...)
				work = len(fresh) + len(add)
				if dTok != 0 {
					work += nt - i0 - len(fresh)
				}
				if dTerm != 0 {
					work += nm - j0 - len(add)
				}
			} else {
				toks := append(make([]lexer.Token, 0, maxRun), r.toks[:i0]...)
				r.toks = append(append(toks, fresh...), r.toks[i1:]...)
				terms := append(make([]*dag.Node, 0, maxRun), r.terms[:j0]...)
				r.terms = append(append(terms, add...), r.terms[j1:]...)
				r.own = true
				work = nt + nm
			}
			if delta != 0 {
				work += nt - i0 - len(fresh)
				for k := i0 + len(fresh); k < nt; k++ {
					r.toks[k].Offset += delta
				}
			}
			return work + d.shiftHeaders(next, delta, dTok, dTerm)
		}
	}

	// Gather the spanned runs, widened to a neighbour when too small.
	lo, hi := max(ra, 0), next
	if lo < hi && d.runs[hi-1].tok+len(d.runs[hi-1].toks)-d.runs[lo].tok+dTok < maxRun/4 && hi-lo < len(d.runs) {
		if hi < len(d.runs) {
			hi++
		} else {
			lo--
		}
	}
	var base, tok0, term0, tokEnd, termEnd int
	if lo < hi {
		base, tok0, term0 = d.runs[lo].start, d.runs[lo].tok, d.runs[lo].term
		last := &d.runs[hi-1]
		tokEnd, termEnd = last.tok+len(last.toks), last.term+len(last.terms)
	}
	toks := d.appendToks(d.scratchToks[:0], tok0, first, 0, base)
	for _, t := range fresh {
		t.Offset -= base
		toks = append(toks, t)
	}
	toks = d.appendToks(toks, resume, tokEnd, delta, base)
	terms := d.appendTerms(d.scratchTerms[:0], term0, tlo)
	terms = append(terms, add...)
	terms = d.appendTerms(terms, thi, termEnd)
	d.scratchToks, d.scratchTerms = toks, terms
	work = len(toks) + len(terms)

	// Cut into ⌈n/maxRun⌉ runs of near-equal size, reusing the gathered
	// runs' storage where it fits.
	parts := d.scratchRuns[:0]
	total := len(toks)
	k := (total + maxRun - 1) / maxRun
	start, tok, term := base, tok0, term0
	for j := 0; j < k; j++ {
		n := total / k
		if j < total%k {
			n++
		}
		m := 0
		for _, t := range toks[:n] {
			if !t.Skip {
				m++
			}
		}
		r := run{start: start, tok: tok, term: term}
		if old := lo + j; old < hi && cap(d.runs[old].toks) >= n && cap(d.runs[old].terms) >= m {
			r.toks, r.terms, r.own = d.runs[old].toks[:n], d.runs[old].terms[:m], d.runs[old].own
		} else {
			r.toks, r.terms, r.own = make([]lexer.Token, n, maxRun), make([]*dag.Node, m, maxRun), true
		}
		rel := toks[0].Offset
		for x := range r.toks {
			r.toks[x] = toks[x]
			r.toks[x].Offset -= rel
		}
		copy(r.terms, terms[:m])
		start = base + toks[n-1].End()
		toks, terms = toks[n:], terms[m:]
		tok, term = tok+n, term+m
		work += n + m
		parts = append(parts, r)
	}
	d.scratchRuns = parts
	d.runs = slices.Replace(d.runs, lo, hi, parts...)
	clear(parts)
	next = lo + k
	if k != hi-lo {
		work += len(d.runs) - next
	}
	return work + d.shiftHeaders(next, delta, dTok, dTerm)
}

// shiftHeaders moves the sums of the headers from run i on by an edit's
// byte, token and terminal deltas, and returns the headers it visited.
func (d *Document) shiftHeaders(i, delta, dTok, dTerm int) int {
	if delta == 0 && dTok == 0 && dTerm == 0 {
		return 0
	}
	for k := i; k < len(d.runs); k++ {
		r := &d.runs[k]
		r.start += delta
		r.tok += dTok
		r.term += dTerm
	}
	return len(d.runs) - i
}

// cursor walks the document's significant terminals across the runs: run
// ri, whose terminals are terms, position pos in them, and global terminal
// index k. Stream and MaskedStream read terminals through it; moving it
// past a reused subtree skips whole runs by their counts.
type cursor struct {
	runs       []run
	terms      []*dag.Node // runs[ri].terms, nil past the last run
	ri, pos, k int
	n          int // terminals in the document
}

// reset puts the cursor on d's first terminal.
func (c *cursor) reset(d *Document) {
	*c = cursor{runs: d.runs, n: d.numTerms()}
	if len(c.runs) > 0 {
		c.terms = c.runs[0].terms
	}
	c.advance(0)
}

// term returns the terminal at the cursor, or nil past the last one.
func (c *cursor) term() *dag.Node {
	if c.pos < len(c.terms) {
		return c.terms[c.pos]
	}
	return nil
}

// advance moves the cursor n terminals forward.
func (c *cursor) advance(n int) {
	c.k += n
	c.pos += n
	for c.pos >= len(c.terms) && c.ri < len(c.runs) {
		c.pos -= len(c.terms)
		c.ri++
		c.terms = nil
		if c.ri < len(c.runs) {
			c.terms = c.runs[c.ri].terms
		}
	}
}

// RunStarts appends the byte offset where each run begins to dst, for
// tests that aim edits at run boundaries.
func (d *Document) RunStarts(dst []int) []int {
	for i := range d.runs {
		dst = append(dst, d.runs[i].start)
	}
	return dst
}

// CheckRuns verifies the run invariants: every run holds 1 to maxRun
// tokens whose relative offsets tile it from 0, one terminal per
// significant token; the runs tile the text in order; and the headers'
// byte, token and terminal sums are the prefix sums of the runs before
// them. The relex oracle calls it after every edit.
func (d *Document) CheckRuns() error {
	start, tok, term := 0, 0, 0
	for i := range d.runs {
		r := &d.runs[i]
		if len(r.toks) == 0 || len(r.toks) > maxRun {
			return fmt.Errorf("document: run %d holds %d tokens, want 1 to %d", i, len(r.toks), maxRun)
		}
		if r.start != start || r.tok != tok || r.term != term {
			return fmt.Errorf("document: run %d header (start %d, tok %d, term %d), prefix sums (%d, %d, %d)",
				i, r.start, r.tok, r.term, start, tok, term)
		}
		off, sig := 0, 0
		for k, t := range r.toks {
			if t.Offset != off {
				return fmt.Errorf("document: run %d token %d at relative offset %d, want %d", i, k, t.Offset, off)
			}
			off = t.End()
			if !t.Skip {
				sig++
			}
		}
		if sig != len(r.terms) {
			return fmt.Errorf("document: run %d has %d significant tokens but %d terminals", i, sig, len(r.terms))
		}
		start, tok, term = start+off, tok+len(r.toks), term+sig
	}
	if start != d.buf.Len() {
		return fmt.Errorf("document: runs cover %d of %d text bytes", start, d.buf.Len())
	}
	if n := len(d.Terminals()); n != term {
		return fmt.Errorf("document: runs hold %d terminals, Terminals returns %d", term, n)
	}
	return nil
}
