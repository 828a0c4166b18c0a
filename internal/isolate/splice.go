package isolate

import (
	"slices"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/grammar"
)

// splicer inserts error nodes into a masked-parse tree at associative-
// sequence boundaries, path-copying the spine with fresh NoState nodes so
// committed structure is never mutated in place. It reads the document's
// terminals through the token runs, and locates committed nodes from the
// tree (Document.PresentSpan).
type splicer struct {
	d   *document.Document
	a   *dag.Arena
	g   *grammar.Grammar
	seq *dag.SeqBuilder
	// rest holds, during spliceAll, the regions not yet spliced: the gaps
	// in the tree's yield that separate its positions from the document's
	// terminal indices.
	rest []Region
	// work counts the tree nodes and terminals read plus the sequence parts
	// handled (Result.Work).
	work int
}

// newSplicer returns a splicer over the document, allocating from its
// arena.
func newSplicer(d *document.Document) *splicer {
	return &splicer{d: d, a: d.Arena(), g: d.Grammar(), seq: dag.NewSeqBuilder(d.Arena(), d.Grammar())}
}

// term returns document terminal i, read through the runs.
func (s *splicer) term(i int) *dag.Node {
	s.work++
	return s.d.TermAt(i)
}

// presentSpan returns the [lo, hi) terminal-index span of the committed
// node n's yield over the terminals still present in the document
// (Document.PresentSpan).
func (s *splicer) presentSpan(n *dag.Node) (lo, hi int, ok bool) {
	lo, hi, ok = s.d.PresentSpan(n)
	s.work += s.d.LastReadWork
	return lo, hi, ok
}

// expandReq asks the isolation loop to absorb the document-terminal span
// [lo, hi): the quarantine gap fell strictly inside a sequence element, so
// the whole element must join the region before splicing can succeed.
type expandReq struct{ lo, hi int }

// spliceAll inserts one error node per region into root, left to right,
// then unstamps the structure before each region (unstampBefore).
// Splicing ascending keeps every region's gap position equal to its Lo in
// the evolving tree's terminal coordinates: all terminals before an
// unspliced region are present (earlier regions were just re-inserted) and
// masked spans only occur at or after the gap. A non-nil expandReq means
// the loop must retry with a bigger region; ok is false when no sequence
// structure can host some region at all.
func (s *splicer) spliceAll(root *dag.Node, regions []Region) (res Result, expand *expandReq, ok bool) {
	res.Root = root
	for i, r := range regions {
		s.rest = regions[i:]
		errNode, det := s.errorNode(r)
		nr, req := s.insert(res.Root, 0, r.Lo, errNode, det)
		if req != nil {
			return Result{}, req, true
		}
		if nr == nil {
			return Result{}, nil, false
		}
		res.Root = nr
		res.Errors = append(res.Errors, errNode)
		res.Regions = append(res.Regions, r)
	}
	for _, r := range res.Regions {
		if r.Lo > 0 {
			unstampBefore(res.Root, 0, r.Lo-1)
		}
	}
	res.Work = s.work
	return res, nil, true
}

// wholeFile is isolation's last resort: one error node that owns every
// terminal, as the root, reporting the first failure's expected set.
func (s *splicer) wholeFile(expected []string) Result {
	r := Region{Lo: 0, Hi: s.d.NumTerms(), Expected: expected}
	errNode, _ := s.errorNode(r)
	return Result{Root: errNode, Errors: []*dag.Node{errNode}, Regions: []Region{r}, Work: s.work}
}

// errorNode builds the error node that quarantines region r's terminals,
// read through the runs, with no isolating sequence recorded yet.
func (s *splicer) errorNode(r Region) (*dag.Node, *dag.ErrorDetail) {
	det := &dag.ErrorDetail{Expected: r.Expected, Region: grammar.InvalidSym}
	kids := s.d.AppendTerms(make([]*dag.Node, 0, r.Hi-r.Lo), r.Lo, r.Hi)
	s.work += len(kids)
	return s.a.Error(kids, det), det
}

// insert places errNode at terminal position m within the subtree n (whose
// yield starts at position off), returning a fresh replacement for n, or
// (nil, nil) when no sequence structure under n can host the gap, or an
// expansion request when the gap sits strictly inside a sequence element
// with no deeper host.
func (s *splicer) insert(n *dag.Node, off, m int, errNode *dag.Node, det *dag.ErrorDetail) (*dag.Node, *expandReq) {
	if isSeqStruct(s.g, n) {
		return s.insertSeq(n, off, m, errNode, det, n.Sym)
	}
	switch n.Kind {
	case dag.KindTerminal, dag.KindError:
		return nil, nil
	case dag.KindChoice:
		// Splicing through a choice would corrupt the sibling alternatives,
		// which share the yield; let an enclosing sequence absorb it.
		return nil, nil
	}
	c := off
	prevIdx := -1
	for i, k := range n.Kids {
		tc := int(k.TermCount)
		if tc == 0 {
			// An empty sequence sitting exactly at the gap (e.g. the item
			// list of an empty block, or an empty declaration section) hosts
			// the error node alone; the sequence may sit a level down when a
			// plain production wraps the generated chain.
			if c == m {
				nk, req := s.insert(k, c, m, errNode, det)
				if req != nil {
					return nil, req
				}
				if nk != nil {
					return s.withKid(n, i, nk), nil
				}
			}
			continue
		}
		if m == c {
			// Boundary: try the kid starting here, then the kid ending here.
			nk, req := s.insert(k, c, m, errNode, det)
			if req != nil {
				return nil, req
			}
			if nk != nil {
				return s.withKid(n, i, nk), nil
			}
			if prevIdx >= 0 {
				pk := n.Kids[prevIdx]
				nk, req = s.insert(pk, c-int(pk.TermCount), m, errNode, det)
				if req != nil {
					return nil, req
				}
				if nk != nil {
					return s.withKid(n, prevIdx, nk), nil
				}
			}
			return nil, nil
		}
		if m > c && m < c+tc {
			nk, req := s.insert(k, c, m, errNode, det)
			if req != nil {
				return nil, req
			}
			if nk != nil {
				return s.withKid(n, i, nk), nil
			}
			return nil, nil
		}
		c += tc
		prevIdx = i
	}
	if m == c && prevIdx >= 0 {
		// Gap at the very end of n's yield: only the last kid can host it.
		pk := n.Kids[prevIdx]
		nk, req := s.insert(pk, c-int(pk.TermCount), m, errNode, det)
		if req != nil {
			return nil, req
		}
		if nk != nil {
			return s.withKid(n, prevIdx, nk), nil
		}
	}
	return nil, nil
}

// insertSeq handles a node that is itself sequence structure: a gap at an
// element boundary hosts the error node as an extra element; a gap strictly
// inside an element first tries a deeper host, then requests that the whole
// element be absorbed into the region. The X* wrapper delegates to its X+
// (or, when empty, hosts the error node as the sole element); region is
// the sequence nonterminal reported for a boundary host.
//
// The sequence is rebuilt from its parts (dag.SeqBuilder.Parts): the
// pieces the masked parse reused and the elements it appended. Only the
// piece that holds the gap is split, level by level along the path to it,
// so Build reuses every other piece that keeps its canonical position —
// all of them when the element count is the committed one, as it is when
// an element is replaced or the error node takes the place of the one
// element its region masked — and builds O(lg N) nodes.
func (s *splicer) insertSeq(n *dag.Node, off, m int, errNode *dag.Node, det *dag.ErrorDetail, region grammar.Sym) (*dag.Node, *expandReq) {
	if n.Kind == dag.KindProduction && !dag.IsSeqChain(s.g, n) {
		// X* → ε | X+.
		if len(n.Kids) == 1 {
			nk, req := s.insertSeq(n.Kids[0], off, m, errNode, det, region)
			if nk == nil {
				return nil, req
			}
			return s.withKid(n, 0, nk), nil
		}
		for _, p := range s.g.ProductionsFor(n.Sym) {
			if len(p.RHS) == 1 {
				det.Region = region
				plus := s.seq.Build(p.RHS[0], []dag.SeqPart{{Node: errNode}})
				return s.a.Production(n.Sym, p.ID, dag.NoState, []*dag.Node{plus}), nil
			}
		}
		return nil, nil
	}
	parts := s.seq.Parts(n)
	s.work += len(parts)
	c := off
	for j := 0; j < len(parts); j++ {
		e := parts[j].Node
		tc := int(e.TermCount)
		if m == c {
			det.Region = region
			return s.seq.Build(n.Sym, slices.Insert(parts, j, dag.SeqPart{Node: errNode})), nil
		}
		if m >= c+tc {
			c += tc
			continue
		}
		if e.Kind == dag.KindSeq {
			// The gap is inside this piece: put its kids in its place, the
			// elements of a leaf with the state the leaf recorded for them.
			kids := make([]dag.SeqPart, len(e.Kids))
			for i, k := range e.Kids {
				kids[i] = dag.SeqPart{Node: k, State: e.State}
			}
			s.work += len(kids)
			parts = slices.Replace(parts, j, j+1, kids...)
			j--
			continue
		}
		nk, req := s.insert(e, c, m, errNode, det)
		if req != nil {
			return nil, req
		}
		if nk != nil {
			parts[j].Node = nk
			return s.seq.Build(n.Sym, parts), nil
		}
		// Every terminal of e is present, and those before the gap sit at
		// their document indices.
		return nil, &expandReq{lo: c, hi: unmask(c+tc-1, s.rest) + 1}
	}
	if m == c {
		det.Region = region
		return s.seq.Build(n.Sym, append(parts, dag.SeqPart{Node: errNode})), nil
	}
	return nil, nil
}

// withKid path-copies production node n with kid i replaced. The copy gets
// NoState so a later reparse breaks it down instead of reusing it whole —
// the convergence path back to a batch-identical tree.
func (s *splicer) withKid(n *dag.Node, i int, nk *dag.Node) *dag.Node {
	kids := make([]*dag.Node, len(n.Kids))
	copy(kids, n.Kids)
	kids[i] = nk
	return s.a.Production(n.Sym, int(n.Prod), dag.NoState, kids)
}
