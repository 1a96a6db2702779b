// Package graph provides the generic graph machinery used by the SunFloor 3D
// flow: weighted directed graphs, shortest paths (Dijkstra), reachability,
// cycle detection (for deadlock-freedom checks on channel dependency graphs)
// and balanced k-way min-cut partitioning (recursive bisection with
// Kernighan–Lin pairwise-swap refinement), which implements the "min-cut
// partitions" steps of Algorithms 1 and 2 of the paper.
//
// Adjacency is stored as per-vertex arc slices kept in ascending target
// order, so every traversal and every floating-point fold over the edges
// runs in index order by construction: no map iteration and no sorting
// step stands between the graph and a deterministic result.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a weighted directed edge.
type Edge struct {
	From, To int
	Weight   float64
}

// arc is one out-edge of a vertex.
type arc struct {
	to int
	w  float64
}

// Graph is a weighted directed graph over vertices 0..N-1. Parallel edges are
// merged by summing their weights.
type Graph struct {
	n int
	// adj[u] holds the out-arcs of u in ascending target order. Keeping the
	// slices sorted on insert makes every iteration over the graph — and
	// every float fold over its weights — index-ordered by construction.
	adj [][]arc
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]arc, n)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// Grow appends k isolated vertices to the graph and returns the index of the
// first new vertex. Existing vertices and edges are untouched, so callers can
// extend a graph in place instead of rebuilding it (the channel dependency
// graph of the router gains one vertex per newly opened link this way).
func (g *Graph) Grow(k int) int {
	first := g.n
	if k > 0 {
		g.adj = append(g.adj, make([][]arc, k)...)
		g.n += k
	}
	return first
}

// NumEdges returns the number of directed edges. An edge created by AddEdge
// counts even when its accumulated weight is zero; only SetEdge(u, v, 0) and
// RemoveEdge delete an edge.
func (g *Graph) NumEdges() int {
	c := 0
	for _, as := range g.adj {
		c += len(as)
	}
	return c
}

// find returns the position of the arc u->v in adj[u], or the position where
// it would be inserted, and whether it is present.
func (g *Graph) find(u, v int) (int, bool) {
	as := g.adj[u]
	lo, hi := 0, len(as)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as[mid].to < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(as) && as[lo].to == v
}

// insert places the arc u->v with weight w at position i of adj[u].
func (g *Graph) insert(u, i, v int, w float64) {
	as := append(g.adj[u], arc{})
	copy(as[i+1:], as[i:])
	as[i] = arc{to: v, w: w}
	g.adj[u] = as
}

// add adds w to the edge u->v, creating it with weight 0 + w if absent (so a
// -0 weight is stored as +0, exactly as summing into a zero cell would).
func (g *Graph) add(u, v int, w float64) {
	i, ok := g.find(u, v)
	if ok {
		g.adj[u][i].w += w
		return
	}
	g.insert(u, i, v, 0+w)
}

// AddEdge adds weight w to the directed edge u->v (creating it if needed).
// It panics if a vertex is out of range: edges are only ever added by this
// package's callers from validated indices, so an out-of-range index is a
// programming error.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		return // ignore self loops; they never affect cuts or paths
	}
	g.add(u, v, w)
}

// SetEdge sets the weight of the directed edge u->v, overwriting any existing
// weight. A weight of zero removes the edge.
func (g *Graph) SetEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	if w == 0 {
		g.RemoveEdge(u, v)
		return
	}
	i, ok := g.find(u, v)
	if ok {
		g.adj[u][i].w = w
		return
	}
	g.insert(u, i, v, w)
}

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.find(u, v)
	return ok
}

// Weight returns the weight of edge u->v (0 if absent).
func (g *Graph) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	if i, ok := g.find(u, v); ok {
		return g.adj[u][i].w
	}
	return 0
}

// RemoveEdge deletes the directed edge u->v if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	if i, ok := g.find(u, v); ok {
		g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
	}
}

// Successors returns the targets of all out-edges of u in ascending order.
func (g *Graph) Successors(u int) []int {
	g.check(u)
	out := make([]int, len(g.adj[u]))
	for i, a := range g.adj[u] {
		out[i] = a.to
	}
	return out
}

// Edges returns all edges in (From, To) order.
func (g *Graph) Edges() []Edge {
	var es []Edge
	if m := g.NumEdges(); m > 0 {
		es = make([]Edge, 0, m)
	}
	for u, as := range g.adj {
		for _, a := range as {
			es = append(es, Edge{From: u, To: a.to, Weight: a.w})
		}
	}
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u, as := range g.adj {
		if len(as) > 0 {
			c.adj[u] = append([]arc(nil), as...)
		}
	}
	return c
}

// Undirected returns a new graph where every edge u->v is mirrored as v->u
// with the weights of both directions summed. Partitioning operates on the
// undirected view of the communication graph. Each cell (x, y) sums its two
// directed weights in ascending source order, starting from zero.
func (g *Graph) Undirected() *Graph {
	u := New(g.n)
	for a, as := range g.adj {
		for _, e := range as {
			u.add(a, e.to, e.w)
			u.add(e.to, a, e.w)
		}
	}
	return u
}

// TotalWeight returns the sum of all edge weights, folded in (From, To)
// order. Float addition is not associative, so the fold order is part of
// the result.
func (g *Graph) TotalWeight() float64 {
	var t float64
	for _, as := range g.adj {
		for _, a := range as {
			t += a.w
		}
	}
	return t
}

// Colours of the depth-first search in HasCycle.
const (
	white uint8 = iota // unvisited
	grey               // on the current search path
	black              // finished: no cycle reachable
)

// HasCycle reports whether the directed graph contains a cycle. It is used on
// channel dependency graphs to verify that a set of routes is deadlock free.
func (g *Graph) HasCycle() bool {
	color := make([]uint8, g.n)
	for u := 0; u < g.n; u++ {
		if color[u] == white && g.cycleFrom(u, color) {
			return true
		}
	}
	return false
}

// cycleFrom runs the depth-first search of HasCycle from u.
func (g *Graph) cycleFrom(u int, color []uint8) bool {
	color[u] = grey
	for _, a := range g.adj[u] {
		switch color[a.to] {
		case grey:
			return true
		case white:
			if g.cycleFrom(a.to, color) {
				return true
			}
		}
	}
	color[u] = black
	return false
}

// ConnectedComponents returns the weakly connected components of the graph as
// a slice of vertex slices, each sorted ascending, ordered by smallest member.
func (g *Graph) ConnectedComponents() [][]int {
	und := g.Undirected()
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, a := range und.adj[u] {
				if !seen[a.to] {
					seen[a.to] = true
					stack = append(stack, a.to)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// CutWeight returns the total weight of edges crossing between different
// blocks of the given assignment (undirected sense: both directions counted
// once each as they appear in the directed graph), folded in (From, To)
// order.
func (g *Graph) CutWeight(block []int) float64 {
	if len(block) != g.n {
		panic(fmt.Sprintf("graph: CutWeight assignment length %d != %d vertices", len(block), g.n))
	}
	var cut float64
	for u, as := range g.adj {
		for _, a := range as {
			if block[u] != block[a.to] {
				cut += a.w
			}
		}
	}
	return cut
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
