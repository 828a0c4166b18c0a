package isolate

import (
	"slices"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/grammar"
)

// splicer inserts error nodes into a masked-parse tree at associative-
// sequence boundaries, path-copying the spine with fresh NoState nodes so
// committed structure is never mutated in place.
type splicer struct {
	a   *dag.Arena
	g   *grammar.Grammar
	seq *dag.SeqBuilder
	idx *dag.Scratch // document terminal -> index
}

// newSplicer returns a splicer over the document's arena whose index maps
// each of terms to its position, in a node-ID table: terminals no longer in
// the document (and nodes the masked parses build) have no entry. The
// caller releases the index with dag.ReleaseScratch.
func newSplicer(d *document.Document, terms []*dag.Node) *splicer {
	idx := dag.AcquireScratch()
	for i, t := range terms {
		idx.SetValue(t, i)
	}
	return &splicer{a: d.Arena(), g: d.Grammar(), seq: dag.NewSeqBuilder(d.Arena(), d.Grammar()), idx: idx}
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
func (s *splicer) spliceAll(root *dag.Node, terms []*dag.Node, regions []Region) (res Result, expand *expandReq, ok bool) {
	res.Root = root
	for _, r := range regions {
		errNode, det := errorNode(s.a, terms, r)
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
	return res, nil, true
}

// wholeFile is isolation's last resort: one error node that owns every
// terminal, as the root, reporting the first failure's expected set.
func wholeFile(a *dag.Arena, terms []*dag.Node, expected []string) Result {
	r := Region{Lo: 0, Hi: len(terms), Expected: expected}
	errNode, _ := errorNode(a, terms, r)
	return Result{Root: errNode, Errors: []*dag.Node{errNode}, Regions: []Region{r}}
}

// errorNode builds the error node that quarantines region r's terminals,
// with no isolating sequence recorded yet.
func errorNode(a *dag.Arena, terms []*dag.Node, r Region) (*dag.Node, *dag.ErrorDetail) {
	det := &dag.ErrorDetail{Expected: r.Expected, Region: grammar.InvalidSym}
	kids := make([]*dag.Node, r.Hi-r.Lo)
	copy(kids, terms[r.Lo:r.Hi])
	return a.Error(kids, det), det
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
	elems := s.seq.Elements(n)
	c := off
	for j, p := range elems {
		e := p.Node
		tc := int(e.TermCount)
		if m == c {
			det.Region = region
			return s.build(n.Sym, elems, j, errNode), nil
		}
		if m < c+tc {
			nk, req := s.insert(e, c, m, errNode, det)
			if req != nil {
				return nil, req
			}
			if nk != nil {
				elems[j].Node = nk
				return s.build(n.Sym, elems, -1, nil), nil
			}
			lo, hi, ok := presentSpan(s.idx, e)
			if !ok {
				return nil, nil
			}
			return nil, &expandReq{lo: lo, hi: hi}
		}
		c += tc
	}
	if m == c {
		det.Region = region
		return s.build(n.Sym, elems, len(elems), errNode), nil
	}
	return nil, nil
}

// build returns the canonical sequence of the X+ symbol sym over elems,
// with extra (when non-nil) inserted before position j.
func (s *splicer) build(sym grammar.Sym, elems []dag.SeqPart, j int, extra *dag.Node) *dag.Node {
	if extra != nil {
		elems = slices.Insert(elems, j, dag.SeqPart{Node: extra})
	}
	return s.seq.Build(sym, elems)
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
