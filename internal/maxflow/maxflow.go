// Package maxflow implements maximum flow on unit-ish capacity
// networks via Dinic's algorithm, with residual-reachability min-cut
// extraction. It is the substrate of the FlowMap labeling step, where
// each node-capacity-1 network asks for a k-feasible cut.
package maxflow

import "fmt"

// Inf is a practically infinite capacity.
const Inf = int(1) << 30

type edge struct {
	to  int
	cap int
	rev int // index of the reverse edge in adj[to]
}

// Graph is a flow network over nodes 0..n-1. Its adjacency lists and
// the scratch of Dinic's phases and of SourceSide keep their capacity
// across Reset and AddNode, so a loop that rebuilds one graph per
// query allocates only while the graphs still grow.
type Graph struct {
	adj [][]edge
	// scratch for Dinic
	level []int
	iter  []int
	queue []int
	side  []bool
}

// New creates a flow network with n nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]edge, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// AddNode appends a node and returns its index.
func (g *Graph) AddNode() int {
	n := len(g.adj)
	if n < cap(g.adj) {
		g.adj = g.adj[:n+1]
		g.adj[n] = g.adj[n][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return n
}

// AddEdge adds a directed edge u->v with the given capacity.
func (g *Graph) AddEdge(u, v, cap int) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("maxflow: edge (%d,%d) out of range", u, v)
	}
	if cap < 0 {
		return fmt.Errorf("maxflow: negative capacity on (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], edge{to: v, cap: cap, rev: len(g.adj[v])})
	g.adj[v] = append(g.adj[v], edge{to: u, cap: 0, rev: len(g.adj[u]) - 1})
	return nil
}

// MaxFlow computes the maximum s-t flow, stopping early once the flow
// exceeds limit (pass Inf for no limit). The graph retains the
// residual state for MinCut.
func (g *Graph) MaxFlow(s, t int, limit int) int {
	if s == t {
		return Inf
	}
	flow := 0
	for flow <= limit {
		if !g.bfs(s, t) {
			break
		}
		g.iter = resize(g.iter, len(g.adj))
		clear(g.iter)
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			flow += f
			if flow > limit {
				return flow
			}
		}
	}
	return flow
}

func (g *Graph) bfs(s, t int) bool {
	g.level = resize(g.level, len(g.adj))
	for i := range g.level {
		g.level[i] = -1
	}
	queue := append(g.queue[:0], s)
	g.level[s] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range g.adj[u] {
			if e.cap > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue
	return g.level[t] >= 0
}

func (g *Graph) dfs(u, t, f int) int {
	if u == t {
		return f
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		e := &g.adj[u][g.iter[u]]
		if e.cap > 0 && g.level[e.to] == g.level[u]+1 {
			m := f
			if e.cap < m {
				m = e.cap
			}
			d := g.dfs(e.to, t, m)
			if d > 0 {
				e.cap -= d
				g.adj[e.to][e.rev].cap += d
				return d
			}
		}
	}
	return 0
}

// SourceSide returns the set of nodes reachable from s in the residual
// graph after MaxFlow; the saturated edges leaving this set form a
// minimum cut. The slice is the graph's scratch: it is valid until the
// next SourceSide call.
func (g *Graph) SourceSide(s int) []bool {
	g.side = resize(g.side, len(g.adj))
	seen := g.side
	clear(seen)
	stack := append(g.queue[:0], s)
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	g.queue = stack
	return seen
}

// resize returns s with length n, reallocated only when it is too
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset reuses the graph's storage for a fresh network with n nodes:
// adjacency lists are truncated in place, so steady-state labeling
// loops allocate almost nothing.
func (g *Graph) Reset(n int) {
	g.adj = g.adj[:0]
	for i := 0; i < n; i++ {
		g.AddNode()
	}
}
