package graph

import (
	"container/heap"
	"math"
)

// Infinity is the cost returned for unreachable vertices and the value used
// by callers to mark forbidden arcs (the paper's INF hard threshold in
// Algorithm 3).
const Infinity = math.MaxFloat64

// pqItem is an entry of the Dijkstra priority queue.
type pqItem struct {
	vertex int
	dist   float64
}

type priorityQueue []pqItem

func (pq priorityQueue) Len() int            { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool  { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)       { pq[i], pq[j] = pq[j], pq[i] }
func (pq *priorityQueue) Push(x interface{}) { *pq = append(*pq, x.(pqItem)) }
func (pq *priorityQueue) Pop() interface{} {
	old := *pq
	n := len(old)
	it := old[n-1]
	*pq = old[:n-1]
	return it
}

// ShortestPath returns the minimum-cost path from src to dst over the
// directed graph, treating edge weights as costs, together with the total
// cost. It returns (nil, Infinity) when dst is unreachable. Edges with weight
// >= Infinity are skipped.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64) {
	dist, prev := g.dijkstra(src, dst)
	if dist[dst] >= Infinity {
		return nil, Infinity
	}
	// Reconstruct.
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

// ShortestPathCost behaves like ShortestPath but computes only the cost.
func (g *Graph) ShortestPathCost(src, dst int) float64 {
	dist, _ := g.dijkstra(src, dst)
	return dist[dst]
}

// ShortestPathsFrom returns the cost of the shortest path from src to every
// vertex (Infinity for unreachable ones).
func (g *Graph) ShortestPathsFrom(src int) []float64 {
	dist, _ := g.dijkstra(src, -1)
	return dist
}

// dijkstra runs Dijkstra's algorithm from src, optionally terminating early
// when target (>= 0) is settled.
func (g *Graph) dijkstra(src, target int) (dist []float64, prev []int) {
	g.check(src)
	dist = make([]float64, g.n)
	prev = make([]int, g.n)
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	dist[src] = 0
	pq := &priorityQueue{{vertex: src, dist: 0}}
	settled := make([]bool, g.n)
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		u := it.vertex
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == target {
			return dist, prev
		}
		// Relax neighbours in ascending vertex order (the arc-slice order), so
		// the predecessor recorded for an equal-cost tie — and therefore the
		// reconstructed path — is fixed.
		for _, a := range g.adj[u] {
			v, w := a.to, a.w
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
	return dist, prev
}

// HopDistance returns the minimum number of edges on a path from src to dst,
// ignoring weights, or -1 when unreachable. It is used for zero-load latency
// estimates on topology graphs.
func (g *Graph) HopDistance(src, dst int) int {
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
		for _, a := range g.adj[u] {
			if v := a.to; dist[v] == -1 {
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
