package graph

import (
	"container/heap"
	"fmt"
	"sort"
)

// mapGraph is a map-backed reference implementation of Graph, written for
// plainness rather than speed: adjacency is one map per vertex, and every
// ordered query sorts. FuzzGraphOps applies every mutation to both and
// requires bit-identical answers from every query, which pins Graph's
// semantics — merge-by-summing, zero-weight edges, SetEdge(0) removal and
// the (From, To) fold order of TotalWeight/CutWeight — to this model.
type mapGraph struct {
	n   int
	adj []map[int]float64
}

func newMapGraph(n int) *mapGraph {
	if n < 0 {
		n = 0
	}
	g := &mapGraph{n: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

func (g *mapGraph) Grow(k int) int {
	first := g.n
	for i := 0; i < k; i++ {
		g.adj = append(g.adj, make(map[int]float64))
	}
	if k > 0 {
		g.n += k
	}
	return first
}

func (g *mapGraph) NumEdges() int {
	c := 0
	for _, m := range g.adj {
		c += len(m)
	}
	return c
}

func (g *mapGraph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	g.adj[u][v] += w
}

func (g *mapGraph) SetEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	if w == 0 {
		delete(g.adj[u], v)
		return
	}
	g.adj[u][v] = w
}

func (g *mapGraph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

func (g *mapGraph) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	return g.adj[u][v]
}

func (g *mapGraph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	delete(g.adj[u], v)
}

func (g *mapGraph) Successors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (g *mapGraph) Edges() []Edge {
	var es []Edge
	for u, m := range g.adj {
		for v, w := range m {
			es = append(es, Edge{From: u, To: v, Weight: w})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

func (g *mapGraph) Undirected() *mapGraph {
	u := newMapGraph(g.n)
	for a, m := range g.adj {
		for b, w := range m {
			u.adj[a][b] += w
			u.adj[b][a] += w
		}
	}
	return u
}

func (g *mapGraph) TotalWeight() float64 {
	var t float64
	for _, e := range g.Edges() {
		t += e.Weight
	}
	return t
}

func (g *mapGraph) HasCycle() bool {
	color := make([]int, g.n)
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = 1
		for v := range g.adj[u] {
			switch color[v] {
			case 1:
				return true
			case 0:
				if visit(v) {
					return true
				}
			}
		}
		color[u] = 2
		return false
	}
	for u := 0; u < g.n; u++ {
		if color[u] == 0 && visit(u) {
			return true
		}
	}
	return false
}

func (g *mapGraph) ConnectedComponents() [][]int {
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
			for v := range und.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

func (g *mapGraph) CutWeight(block []int) float64 {
	var cut float64
	for _, e := range g.Edges() {
		if block[e.From] != block[e.To] {
			cut += e.Weight
		}
	}
	return cut
}

func (g *mapGraph) ShortestPath(src, dst int) ([]int, float64) {
	g.check(src)
	dist := make([]float64, g.n)
	prev := make([]int, g.n)
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	dist[src] = 0
	pq := &priorityQueue{{vertex: src, dist: 0}}
	settled := make([]bool, g.n)
	for pq.Len() > 0 {
		u := heap.Pop(pq).(pqItem).vertex
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == dst {
			break
		}
		for _, v := range g.Successors(u) {
			w := g.adj[u][v]
			if w >= Infinity || settled[v] {
				continue
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				heap.Push(pq, pqItem{vertex: v, dist: nd})
			}
		}
	}
	if dist[dst] >= Infinity {
		return nil, Infinity
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, dist[dst]
}

func (g *mapGraph) HopDistance(src, dst int) int {
	g.check(src)
	g.check(dst)
	if src == dst {
		return 0
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				if v == dst {
					return dist[v]
				}
				queue = append(queue, v)
			}
		}
	}
	return -1
}

func (g *mapGraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
