package analysis

// lockgraph: the global lock-acquisition graph. The rule sees every mutex
// field of every module struct, adds the edges a function creates *through
// its callees* (f holds A and calls g, which may acquire B — edge A→B even
// though no single function holds both), and reports:
//
//   - cycle:           a cross-function cycle among distinct locks, with the
//                      full path (each edge cites the function, position,
//                      and callee that realizes it);
//   - self-cycle:      a lock (re-)acquired while already held — Go mutexes
//                      are not reentrant, so this is a self-deadlock unless
//                      both holds are read locks;
//   - rank:            every acquisition, direct or through a callee, of a
//                      lower-rank lock while a higher-rank one is held (see
//                      lockRanks) — the declared hierarchy, checked even
//                      where no reverse edge has closed a cycle yet;
//   - held-transition: any module lock held across a domain transition
//                      (ECall/OCall/NECall families, the sgx entry/exit
//                      instructions, a switchless ring submit). A transition
//                      parks the goroutine on another protection domain's
//                      progress; holding a lock across it extends that wait
//                      to every thread contending the lock.
import (
	"fmt"
	"go/types"
	"io"
	"sort"
	"strings"
)

// LockGraph is the interprocedural lock-ordering and transition rule.
var LockGraph = &Analyzer{
	Name: "lockgraph",
	Doc:  "the module-wide lock graph is acyclic, follows the declared lock ranks, and no lock is held across a domain transition",
	RunProgram: func(pass *ProgramPass) {
		p := pass.Prog
		edges := collectLockEdges(p)

		// Self-cycles first: direct or via-call re-acquisition.
		for _, e := range edges {
			if e.from != e.to {
				continue
			}
			via := ""
			if e.via != nil {
				via = " via " + e.via.name
			}
			pass.Reportf(e.pos, "lockgraph/self-cycle",
				"%s acquired in %s%s while already held — Go locks are not reentrant, this self-deadlocks",
				lockDisplay(e.to), e.fn.name, via)
		}

		// Cross-lock cycles: one finding per strongly connected component.
		reportLockCycles(pass, edges)

		// Rank inversions: every witness, not one per (from, to) pair, so
		// each inverting site is reported at its own line.
		walkLockEdges(p, func(e lockEdge) {
			held, ok := lockRank(e.from)
			if !ok {
				return
			}
			acq, ok := lockRank(e.to)
			if !ok || acq >= held {
				return
			}
			via := ""
			if e.via != nil {
				via = " via " + e.via.name
			}
			pass.Reportf(e.pos, "lockgraph/rank",
				"%s acquires the rank-%d %s%s while holding the rank-%d %s; machine-level locks come before page-table locks",
				e.fn.name, acq, lockDisplay(e.to), via, held, lockDisplay(e.from))
		})

		// Held-across-transition.
		for _, n := range p.nodes {
			for _, cs := range n.calls {
				if len(cs.held) == 0 {
					continue
				}
				name, chain := transitionTarget(p, cs.callee)
				if name == "" {
					continue
				}
				locks := make([]string, 0, len(cs.held))
				for _, h := range cs.held {
					locks = append(locks, lockDisplay(h.lock))
				}
				pass.Reportf(cs.pos, "lockgraph/held-transition",
					"%s held across domain transition %s%s — release before crossing the boundary",
					strings.Join(locks, ", "), name, chain)
			}
		}
	},
}

// lockRanks is the declared lock hierarchy, by the struct that owns the
// mutex field: a thread holding a rank-r lock may only acquire locks of rank
// r or above. Machine-level mutexes (sgx.Machine, kos.Kernel) are rank 0 and
// the page-table lock rank 1. Page-table writers run under the machine's
// world view: a machine-lock holder may publish page-table updates, as an
// eviction that shoots down the inner enclaves' TLBs does, so a thread that
// takes the page-table lock and then blocks on the machine lock deadlocks
// against it.
var lockRanks = []struct {
	pkgSuffix string
	typeName  string
	rank      int
}{
	{"internal/sgx", "Machine", 0},
	{"internal/kos", "Kernel", 0},
	{"internal/pt", "Table", 1},
}

// lockRank returns the declared rank of a mutex field, if its owner has one.
func lockRank(v *types.Var) (int, bool) {
	if v.Pkg() == nil {
		return 0, false
	}
	owner := fieldOwner(v)
	for _, r := range lockRanks {
		if owner == r.typeName && pathMatches(v.Pkg().Path(), r.pkgSuffix) {
			return r.rank, true
		}
	}
	return 0, false
}

// walkLockEdges visits every lock-order witness in deterministic node/source
// order: direct edges from each function's scan, plus held×callee-mayAcquire
// edges at each call site.
func walkLockEdges(p *Program, visit func(lockEdge)) {
	for _, n := range p.nodes {
		for _, e := range n.localEdges {
			visit(e)
		}
		for _, cs := range n.calls {
			if len(cs.held) == 0 {
				continue
			}
			callee := p.fns[cs.callee]
			if callee == nil || callee.mayAcquire == nil {
				continue
			}
			for _, lock := range sortedLocks(callee.mayAcquire) {
				w := callee.mayAcquire[lock]
				for _, h := range cs.held {
					if h.lock == lock && h.shared && w.shared {
						continue // RLock while RLock-held: permitted reentrancy
					}
					visit(lockEdge{from: h.lock, to: lock, fn: n, pos: cs.pos, via: callee, shared: h.shared})
				}
			}
		}
	}
}

// collectLockEdges builds the deduplicated global edge list: the first
// witness walkLockEdges visits represents each (from, to) pair.
func collectLockEdges(p *Program) []lockEdge {
	type key struct{ from, to *types.Var }
	seen := make(map[key]bool)
	var out []lockEdge
	walkLockEdges(p, func(e lockEdge) {
		k := key{e.from, e.to}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	})
	return out
}

// reportLockCycles finds strongly connected components with more than one
// lock and reports each as a single cycle path.
func reportLockCycles(pass *ProgramPass, edges []lockEdge) {
	adj := make(map[*types.Var][]*types.Var)
	rep := make(map[[2]*types.Var]lockEdge)
	var locks []*types.Var
	seenLock := make(map[*types.Var]bool)
	note := func(v *types.Var) {
		if !seenLock[v] {
			seenLock[v] = true
			locks = append(locks, v)
		}
	}
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		note(e.from)
		note(e.to)
		k := [2]*types.Var{e.from, e.to}
		if _, ok := rep[k]; !ok {
			rep[k] = e
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	for _, scc := range lockSCCs(locks, adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return lockDisplay(scc[i]) < lockDisplay(scc[j]) })
		cycle := shortestCycle(scc[0], scc, adj)
		if cycle == nil {
			continue
		}
		var path strings.Builder
		path.WriteString(lockDisplay(cycle[0]))
		for i := 0; i < len(cycle); i++ {
			from := cycle[i]
			to := cycle[(i+1)%len(cycle)]
			e := rep[[2]*types.Var{from, to}]
			via := ""
			if e.via != nil {
				via = " via " + e.via.name
			}
			fmt.Fprintf(&path, " -> %s (%s at %s%s)", lockDisplay(to), e.fn.name, pass.Posn(e.pos), via)
		}
		first := rep[[2]*types.Var{cycle[0], cycle[1%len(cycle)]}]
		pass.Reportf(first.pos, "lockgraph/cycle",
			"lock-acquisition cycle: %s — break the cycle or impose a global order", path.String())
	}
}

// shortestCycle BFSes from start back to itself inside the SCC.
func shortestCycle(start *types.Var, scc []*types.Var, adj map[*types.Var][]*types.Var) []*types.Var {
	in := make(map[*types.Var]bool, len(scc))
	for _, v := range scc {
		in[v] = true
	}
	prev := make(map[*types.Var]*types.Var)
	queue := []*types.Var{start}
	visited := map[*types.Var]bool{start: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start {
				// Reconstruct start -> ... -> v, cycle closes v -> start.
				var rev []*types.Var
				for x := v; x != nil; x = prev[x] {
					rev = append(rev, x)
				}
				out := make([]*types.Var, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if !visited[w] {
				visited[w] = true
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// lockSCCs is Tarjan over the lock graph.
func lockSCCs(locks []*types.Var, adj map[*types.Var][]*types.Var) [][]*types.Var {
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var out [][]*types.Var
	next := 0
	var connect func(v *types.Var)
	connect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range locks {
		if _, seen := index[v]; !seen {
			connect(v)
		}
	}
	return out
}

// transitionTarget resolves whether calling fn crosses (or transitively
// reaches) a domain transition, returning its name and the witness chain.
func transitionTarget(p *Program, fn *types.Func) (string, string) {
	if name := classifyTransition(fn); name != "" {
		return name, ""
	}
	callee := p.fns[fn]
	if callee == nil || callee.trans == nil {
		return "", ""
	}
	var chain strings.Builder
	chain.WriteString(" (via ")
	chain.WriteString(callee.name)
	seen := map[*funcNode]bool{callee: true}
	for w := callee.trans; w != nil && w.next != nil && !seen[w.next]; w = w.next.trans {
		seen[w.next] = true
		chain.WriteString(" -> ")
		chain.WriteString(w.next.name)
	}
	chain.WriteString(")")
	return callee.trans.name, chain.String()
}

func sortedLocks(m map[*types.Var]*acqWitness) []*types.Var {
	out := make([]*types.Var, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := lockDisplay(out[i]), lockDisplay(out[j])
		if a != b {
			return a < b
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

// DumpGraph writes a deterministic summary of the interprocedural state: the
// call-graph size, every lock-graph edge with its witness, the transition
// ops found, and how many functions can transitively reach one. Behind
// cmd/nescheck -graph.
func (p *Program) DumpGraph(w io.Writer) {
	calls := 0
	transOps, transReach := 0, 0
	for _, n := range p.nodes {
		calls += len(n.calls)
		if n.transitionOp != "" {
			transOps++
		}
		if n.trans != nil {
			transReach++
		}
	}
	fmt.Fprintf(w, "call graph: %d functions, %d resolved call sites\n", len(p.nodes), calls)
	fmt.Fprintf(w, "transitions: %d ops, %d functions reach one\n", transOps, transReach)

	edges := collectLockEdges(p)
	fmt.Fprintf(w, "lock graph: %d edges\n", len(edges))
	lines := make([]string, 0, len(edges))
	for _, e := range edges {
		via := ""
		if e.via != nil {
			via = " via " + e.via.name
		}
		ps := p.fset.Position(e.pos)
		lines = append(lines, fmt.Sprintf("  %s -> %s (%s at %s:%d%s)",
			lockDisplay(e.from), lockDisplay(e.to), e.fn.name, shortFile(ps.Filename), ps.Line, via))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	for _, n := range p.nodes {
		if n.transitionOp != "" {
			fmt.Fprintf(w, "transition op: %s\n", n.name)
		}
	}
}
