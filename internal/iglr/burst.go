package iglr

import (
	"iglr/internal/dag"
	"iglr/internal/faultinject"
	"iglr/internal/lr"
)

// Burst mode: a linear-stack fast path through deterministic input regions.
//
// When exactly one parser is active the GSS is a chain and every round of
// parseNextSymbol degenerates to "run the unique reduce cascade, then shift"
// — but still pays for the worklist, the active/forActor/forShifter
// bookkeeping, a GSS node + link per step, and the per-round resets. Burst
// replays that degenerate case on two flat slices (an int32 state stack and
// a parallel dag-node stack) grown on top of the single active GSS node,
// and falls back to the round engine the moment anything non-degenerate
// shows up.
//
// The contract is byte-identity with the round engine, and it is enforced
// structurally: for each lookahead the cascade is first *simulated* on
// states alone, and nodes are committed only if the simulation reaches a
// clean shift. Every other outcome — a conflicted or empty table cell, an
// accept, a dead goto, a reduction that would reach the lookahead's round
// baseline or an earlier goto of the same cascade (where the round engine
// would merge into an existing active parser), or a walk through a GSS node
// with other than one link — exits with *nothing* committed for that
// lookahead, so the round engine re-derives it from scratch and takes its
// own path. Committed work is exactly the work the round engine would have
// done, in the same order, with the same stats and gauge charges; only the
// GSS nodes for popped intermediate states are never materialized (they are
// unobservable — the round engine's equivalents die inert in the active
// list and are recycled at the next parse).
type burstStep struct {
	rule int32
	gt   int32
	pops int32
}

// burstEligible reports whether the fast path may run for lookahead la:
// a lone unambiguous parser, a terminal lookahead, and none of the
// facilities that hook individual round steps (tracing, fault injection).
func (p *Parser) burstEligible(la *dag.Node) bool {
	return !p.NoBurst && len(p.active) == 1 && !p.multiple &&
		la.IsTerminal() && p.Trace == nil && !faultinject.Enabled()
}

// burst consumes terminals until the input stops being degenerate, then
// rebuilds the GSS chain for whatever is on the linear stack and hands
// control back to the round engine (which the caller must invoke next —
// burst guarantees no progress on the lookahead it exits on).
func (p *Parser) burst() error {
	base := p.active[0]
	states := append(p.bStates[:0], int32(base.state))
	nodes := append(p.bNodes[:0], nil)
	// roundBase is the state of the parser a fresh round would start from —
	// the findActive baseline the simulation checks gotos against.
	roundBase := base.state
	polls := 0

	defer func() {
		// Materialize the burst-built stack entries as a GSS chain under the
		// round engine's single active parser. No gauge charges here: each
		// entry was charged when it was committed.
		cur := base
		for i := 1; i < len(states); i++ {
			n := p.gssNodes.get(int(states[i]))
			n.link0 = gssLink{head: cur, node: nodes[i]}
			n.nlinks = 1
			cur = n
		}
		p.active = append(p.active[:0], cur)
		p.bStates, p.bNodes = states[:0], nodes[:0]
	}()

	for {
		la := p.stream.La()
		if la == nil || !la.IsTerminal() {
			return nil
		}

		// --- Simulate la's cascade on states only. ---
		steps := p.bSteps[:0]
		pushed := p.bSim[:0]
		simBase := base
		simDepth := len(states) // linear entries still standing
		target := int32(-1)     // shift target once the cascade resolves
		for {
			polls++
			if polls%checkEvery == 0 {
				if p.ctx != nil {
					if err := p.ctx.Err(); err != nil {
						return err
					}
				}
				p.gauge.CheckDeadline()
			}
			var top int32
			switch {
			case len(pushed) > 0:
				top = pushed[len(pushed)-1]
			case simDepth > 1:
				top = states[simDepth-1]
			default:
				top = int32(simBase.state)
			}
			act, n := p.table.OneAction(int(top), la.Sym)
			if n != 1 || act.Kind == lr.Accept {
				p.bSteps, p.bSim = steps[:0], pushed[:0]
				return nil
			}
			if act.Kind == lr.Shift {
				target = act.Target
				break
			}
			prod := p.g.Production(int(act.Target))
			k := prod.Arity()
			if t := min(k, len(pushed)); t > 0 {
				pushed = pushed[:len(pushed)-t]
				k -= t
			}
			if t := min(k, simDepth-1); t > 0 {
				simDepth -= t
				k -= t
			}
			for ; k > 0; k-- {
				if simBase.nlinks != 1 {
					p.bSteps, p.bSim = steps[:0], pushed[:0]
					return nil
				}
				simBase = simBase.link0.head
			}
			var under int32
			switch {
			case len(pushed) > 0:
				under = pushed[len(pushed)-1]
			case simDepth > 1:
				under = states[simDepth-1]
			default:
				under = int32(simBase.state)
			}
			gt := p.table.Goto(int(under), prod.LHS)
			if gt < 0 || gt == roundBase {
				p.bSteps, p.bSim = steps[:0], pushed[:0]
				return nil
			}
			for _, s := range steps {
				if int(s.gt) == gt {
					// A second parser in state gt: the round engine would
					// merge interpretations instead of stacking.
					p.bSteps, p.bSim = steps[:0], pushed[:0]
					return nil
				}
			}
			steps = append(steps, burstStep{rule: act.Target, gt: int32(gt), pops: int32(prod.Arity())})
			pushed = append(pushed, int32(gt))
		}
		p.bSteps, p.bSim = steps, pushed[:0]

		// --- Commit: the cascade is degenerate, build it for real. ---
		for _, step := range steps {
			p.Stats.Reductions++
			k := int(step.pops)
			var kids []*dag.Node
			if avail := len(nodes) - 1; k <= avail {
				kids = nodes[len(nodes)-k:]
				states = states[:len(states)-k]
				nodes = nodes[:len(nodes)-k]
			} else {
				j := k - avail
				if cap(p.kidsBuf) < k {
					p.kidsBuf = make([]*dag.Node, k)
				}
				kids = p.kidsBuf[:k]
				copy(kids[j:], nodes[1:])
				cur := base
				for i := j - 1; i >= 0; i-- {
					kids[i] = cur.link0.node
					cur = cur.link0.head
				}
				base = cur
				states = append(states[:0], int32(base.state))
				nodes = nodes[:1]
			}
			p.noteNullKids(kids)
			var node *dag.Node
			if old := retained(int(step.rule), kids); old != nil {
				old.State = step.gt
				node = old
				p.Stats.RetainedNodes++
			} else {
				node = p.arena.Reduction(p.g, int(step.rule), int(step.gt), kids)
			}
			p.gauge.AddGSSNode()
			p.gauge.AddGSSLink()
			states = append(states, step.gt)
			nodes = append(nodes, node)
		}

		// Shift la, exactly as the shifter would for one parser.
		la.State = int32(target)
		la.SetChanged(false)
		p.Stats.Rounds++
		p.Stats.Shifts++
		p.Stats.TerminalShifts++
		if p.Stats.MaxActiveParsers < 1 {
			p.Stats.MaxActiveParsers = 1
		}
		p.tokens++
		p.gauge.AddGSSNode()
		p.gauge.AddGSSLink()
		states = append(states, target)
		nodes = append(nodes, la)
		roundBase = int(target)
		p.stream.Pop()
	}
}
