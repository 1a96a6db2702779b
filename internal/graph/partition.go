package graph

import (
	"fmt"
	"sort"
)

// This file implements balanced k-way min-cut partitioning, the work-horse of
// the core-to-switch assignment steps of Algorithms 1 and 2 of the paper
// ("Perform i min-cut partitions of PG" / "Obtain NP min-cut partitions of
// LPG"). Blocks are kept "about equal" in size: every block holds either
// floor(n/k) or ceil(n/k) vertices, matching the paper's balance requirement.
//
// The algorithm is recursive bisection. Each bisection starts from a
// BFS-based seeding that keeps strongly connected clusters together and is
// then refined with Kernighan–Lin style pairwise swaps until no swap improves
// the (undirected) cut weight. The instance sizes in this domain are tiny
// (tens of cores), so the O(n^2) swap refinement is both simple and fast.

// PartitionK partitions the vertices of g into k balanced blocks minimising
// the weight of edges cut between blocks (heuristically). It returns a slice
// assign with assign[v] in [0,k) for every vertex v. The directed graph is
// treated as undirected for cut purposes.
//
// PartitionK panics if k is not in [1, NumVertices()] — callers sweep k over
// exactly that range.
func PartitionK(g *Graph, k int) []int {
	n := g.NumVertices()
	if k < 1 || (k > n && n > 0) {
		panic(fmt.Sprintf("graph: PartitionK with k=%d for %d vertices", k, n))
	}
	assign := make([]int, n)
	if k <= 1 || n == 0 {
		return assign
	}
	und := g.Undirected()
	// Ascending neighbour lists and a dense weight matrix, computed once:
	// every weight summation below iterates neighbours in this fixed order
	// so the float accumulation — and with it the whole partition — is
	// bit-deterministic, and every pairwise weight is a direct index.
	nbrs := make([][]int, n)
	w := make([][]float64, n)
	cells := make([]float64, n*n)
	for v := 0; v < n; v++ {
		nbrs[v] = und.Successors(v)
		w[v] = cells[v*n : (v+1)*n]
		for _, a := range und.adj[v] {
			w[v][a.to] = a.w
		}
	}
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	partitionRec(w, nbrs, verts, k, 0, assign)
	return assign
}

// partitionRec assigns block identifiers [base, base+k) to the given vertices.
func partitionRec(w [][]float64, nbrs [][]int, verts []int, k, base int, assign []int) {
	if k == 1 {
		for _, v := range verts {
			assign[v] = base
		}
		return
	}
	kA := (k + 1) / 2
	kB := k - kA
	// Split the vertex count proportionally to the number of blocks on each
	// side so that the leaves end up with floor(n/k) or ceil(n/k) vertices.
	sizeA := balancedSplit(len(verts), k, kA)
	sideA, sideB := bisect(w, nbrs, verts, sizeA)
	partitionRec(w, nbrs, sideA, kA, base, assign)
	partitionRec(w, nbrs, sideB, kB, base+kA, assign)
}

// balancedSplit returns how many of n vertices go to the side that will hold
// kA of the k blocks, such that every final block has floor(n/k) or
// ceil(n/k) vertices.
func balancedSplit(n, k, kA int) int {
	q, r := n/k, n%k
	// The first r blocks (by block index) get an extra vertex. Side A holds
	// blocks [0, kA), so it receives min(r, kA) of the larger blocks.
	extra := r
	if extra > kA {
		extra = kA
	}
	return q*kA + extra
}

// bisect splits verts into two groups of sizes sizeA and len(verts)-sizeA
// minimising the cut between them (heuristically). w is the dense undirected
// weight matrix and nbrs the ascending neighbour lists of the whole graph.
func bisect(w [][]float64, nbrs [][]int, verts []int, sizeA int) (a, b []int) {
	n := len(verts)
	if sizeA <= 0 {
		return nil, append([]int(nil), verts...)
	}
	if sizeA >= n {
		return append([]int(nil), verts...), nil
	}
	inSet := make([]bool, len(w))
	for _, v := range verts {
		inSet[v] = true
	}

	// Seed side A with a BFS from the vertex with the heaviest incident
	// weight inside this sub-problem. Growing a connected cluster keeps
	// highly-communicating cores together, which is exactly what the paper
	// wants from the min-cut partitioner.
	order := bfsOrder(w, nbrs, verts, inSet)
	side := make([]int8, len(w)) // vertex -> 0 (A) or 1 (B); read only where inSet
	for i, v := range order {
		if i >= sizeA {
			side[v] = 1
		}
	}

	// Kernighan–Lin style pairwise swap refinement: repeatedly perform the
	// swap with the best positive gain until no swap improves the cut.
	for pass := 0; pass < 2*n+4; pass++ {
		bestGain := 0.0
		bestA, bestB := -1, -1
		for _, va := range order {
			if side[va] != 0 {
				continue
			}
			for _, vb := range order {
				if side[vb] != 1 {
					continue
				}
				g := swapGain(w, nbrs, inSet, side, va, vb)
				if g > bestGain+1e-12 {
					bestGain, bestA, bestB = g, va, vb
				}
			}
		}
		if bestA < 0 {
			break
		}
		side[bestA], side[bestB] = 1, 0
	}

	for _, v := range order {
		if side[v] == 0 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

// bfsOrder returns the vertices of the sub-problem in BFS order starting from
// the vertex with the largest incident weight, visiting neighbours in order
// of decreasing connecting weight. Vertices unreachable from the seed are
// appended by the same criterion.
func bfsOrder(w [][]float64, nbrs [][]int, verts []int, inSet []bool) []int {
	// Incident weight inside the sub-problem. Neighbours are summed in the
	// ascending order of nbrs: any other accumulation order could differ in
	// the last ULPs and flip the sort below — the partitioner must be
	// bit-deterministic because the engine's cached and uncached sweeps both
	// rely on recomputing identical partitions.
	weight := make([]float64, len(w))
	for _, v := range verts {
		var s float64
		for _, u := range nbrs[v] {
			if inSet[u] {
				s += w[v][u]
			}
		}
		weight[v] = s
	}
	remaining := append([]int(nil), verts...)
	sort.Slice(remaining, func(i, j int) bool {
		if weight[remaining[i]] != weight[remaining[j]] {
			return weight[remaining[i]] > weight[remaining[j]]
		}
		return remaining[i] < remaining[j]
	})

	visited := make([]bool, len(w))
	order := make([]int, 0, len(verts))
	for _, seed := range remaining {
		if visited[seed] {
			continue
		}
		queue := []int{seed}
		visited[seed] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			// Visit neighbours by decreasing edge weight for determinism and
			// cluster quality.
			var next []int
			for _, v := range nbrs[u] {
				if inSet[v] && !visited[v] {
					next = append(next, v)
				}
			}
			wu := w[u]
			sort.Slice(next, func(i, j int) bool {
				wi, wj := wu[next[i]], wu[next[j]]
				if wi != wj {
					return wi > wj
				}
				return next[i] < next[j]
			})
			for _, v := range next {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return order
}

// swapGain returns the reduction in cut weight obtained by swapping va (in
// side 0) with vb (in side 1). Positive is better.
func swapGain(w [][]float64, nbrs [][]int, inSet []bool, side []int8, va, vb int) float64 {
	// Sum in the ascending neighbour order for bit-deterministic gains (see
	// the matching comment in bfsOrder).
	ext := func(v int, own int8) (external, internal float64) {
		wv := w[v]
		for _, u := range nbrs[v] {
			if !inSet[u] || u == va || u == vb {
				continue
			}
			if side[u] == own {
				internal += wv[u]
			} else {
				external += wv[u]
			}
		}
		return
	}
	extA, intA := ext(va, 0)
	extB, intB := ext(vb, 1)
	// Gain from moving each vertex to the other side, corrected by twice the
	// weight between them (classic KL formula).
	return (extA - intA) + (extB - intB) - 2*w[va][vb]
}

// BlockSizes returns the number of vertices in each block of an assignment
// produced by PartitionK (blocks are assumed to be labelled 0..k-1).
func BlockSizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, b := range assign {
		if b >= 0 && b < k {
			sizes[b]++
		}
	}
	return sizes
}

// Blocks groups vertex indices by block identifier.
func Blocks(assign []int, k int) [][]int {
	blocks := make([][]int, k)
	for v, b := range assign {
		if b >= 0 && b < k {
			blocks[b] = append(blocks[b], v)
		}
	}
	return blocks
}
