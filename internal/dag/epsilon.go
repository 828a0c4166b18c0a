package dag

// UnshareEpsilon implements the paper's §3.5 post-pass: GLR parsing (and
// Rekers-style merging) can over-share subtrees with a null yield, which
// prevents semantic attributes from being uniquely assigned to ε-production
// instances. This pass duplicates any null-yield subtree that is reachable
// through more than one parent edge, so each instance is unique. It returns
// the number of subtrees duplicated. Copies are allocated from a, which
// must be the arena owning root.
//
// Sharing of non-null subtrees (true ambiguity sharing) is left untouched.
// The walk prunes at already-committed subtrees: their interiors were
// unshared when they were first built, and incremental reuse never rewires
// them, so only freshly built structure needs inspection — this keeps the
// pass proportional to the reparsed region.
func UnshareEpsilon(a *Arena, root *Node) int {
	seenNull := AcquireScratch()
	visited := AcquireScratch()
	defer ReleaseScratch(seenNull)
	defer ReleaseScratch(visited)
	dups := 0
	var visit func(n *Node)
	visit = func(n *Node) {
		if !visited.Visit(n) {
			return
		}
		for i, k := range n.Kids {
			if k.TermCount == 0 && !k.IsTerminal() {
				if !seenNull.Visit(k) {
					n.Kids[i] = deepCopy(a, k)
					dups++
					continue // the fresh copy is uniquely owned; no revisit needed
				}
			}
			if !k.Committed() {
				visit(n.Kids[i])
			}
		}
	}
	visit(root)
	return dups
}

// isNullYield reports whether the subtree yields the empty string.
func isNullYield(n *Node) bool { return !n.IsTerminal() && n.TermCount == 0 }

// deepCopy clones a (null-yield) subtree, giving every node fresh identity.
func deepCopy(a *Arena, n *Node) *Node {
	c := a.Clone(n)
	if len(n.Kids) > 0 {
		c.Kids = make([]*Node, len(n.Kids))
		for i, k := range n.Kids {
			c.Kids[i] = deepCopy(a, k)
		}
	}
	return c
}

// SharedNullYields returns the null-yield subtrees reachable through more
// than one parent edge — the over-sharing UnshareEpsilon repairs. Useful
// for tests and diagnostics.
func SharedNullYields(root *Node) []*Node {
	visited := AcquireScratch()
	refs := AcquireScratch()
	defer ReleaseScratch(visited)
	defer ReleaseScratch(refs)
	var out []*Node
	// Count parent edges: each node's child list is scanned exactly once,
	// and a null-yield child is reported when its count first reaches two.
	var countEdges func(n *Node)
	countEdges = func(n *Node) {
		if !visited.Visit(n) {
			return
		}
		for _, k := range n.Kids {
			if isNullYield(k) {
				c, _ := refs.Value(k)
				refs.SetValue(k, c+1)
				if c+1 == 2 {
					out = append(out, k)
				}
			}
			countEdges(k)
		}
	}
	countEdges(root)
	return out
}
