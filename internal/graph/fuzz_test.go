package graph

import (
	"math"
	"reflect"
	"testing"
)

// fuzzWeights is the weight alphabet of FuzzGraphOps. It includes both
// zeros (AddEdge must store 0 + (-0) as +0, SetEdge must treat -0 as a
// removal), values whose sums round, negative weights and the Infinity
// sentinel that Dijkstra skips.
var fuzzWeights = []float64{0, math.Copysign(0, -1), 1, 0.1, 2.5, 1e-17, 1e300, -1, Infinity}

// FuzzGraphOps applies a fuzzed sequence of AddEdge/SetEdge/RemoveEdge/Grow
// operations to the graph and to the map-backed oracle, and after every step
// requires bit-identical answers from every query.
//
// Input layout: data[0] picks the initial vertex count (1..12); the rest is
// read four bytes per operation: opcode, u, v, weight index.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{})
	// Zero and -0 weights: AddEdge creates zero-weight edges, SetEdge(0)
	// and SetEdge(-0) remove them.
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 2, 1, 1, 1, 2, 0, 1, 0, 1, 1})
	f.Add([]byte{4, 0, 0, 1, 1, 4, 0, 1, 0, 1, 2, 3, 2, 2, 3, 0, 0, 2, 3, 1, 0, 3, 0, 4})
	// A cycle closed and broken again, then grown vertices joined in.
	f.Add([]byte{5, 0, 0, 1, 2, 0, 1, 2, 2, 0, 2, 0, 2, 2, 2, 0, 0, 3, 2, 0, 0, 0, 5, 1, 3, 6, 0, 5})
	// A fold whose rounding depends on its order: (1 + 0.1) + 0.1 differs
	// from (0.1 + 0.1) + 1 in the last bit.
	f.Add([]byte{3, 0, 0, 1, 2, 0, 1, 2, 3, 0, 2, 0, 3})
	// Rounding sums, negative and Infinity weights on the same arcs.
	f.Add([]byte{6, 0, 0, 1, 3, 0, 0, 1, 3, 0, 0, 1, 5, 4, 1, 2, 6, 4, 1, 2, 6, 0, 2, 5, 8, 1, 0, 2, 7, 0, 3, 4, 1})
	f.Add([]byte{12, 0, 0, 11, 2, 0, 11, 0, 3, 1, 5, 6, 4, 0, 6, 5, 8, 2, 0, 11, 0, 3, 7, 0, 0, 0, 12, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		n := 1
		if len(data) > 0 {
			n = 1 + int(data[0])%12
			data = data[1:]
		}
		g, o := New(n), newMapGraph(n)
		assertGraphsMatch(t, "initial", g, o)
		for step := 0; len(data) >= 4 && step < 48; step, data = step+1, data[4:] {
			u, v := int(data[1])%g.NumVertices(), int(data[2])%g.NumVertices()
			w := fuzzWeights[int(data[3])%len(fuzzWeights)]
			switch data[0] % 5 {
			case 0, 4:
				g.AddEdge(u, v, w)
				o.AddEdge(u, v, w)
			case 1:
				g.SetEdge(u, v, w)
				o.SetEdge(u, v, w)
			case 2:
				g.RemoveEdge(u, v)
				o.RemoveEdge(u, v)
			case 3:
				k := int(data[3]) % 3
				if g.NumVertices()+k > 16 {
					k = 0 // keep the all-pairs checks cheap
				}
				if a, b := g.Grow(k), o.Grow(k); a != b {
					t.Fatalf("step %d: Grow(%d) = %d, oracle %d", step, k, a, b)
				}
			}
			assertGraphsMatch(t, "after step", g, o)
		}
	})
}

// assertGraphsMatch compares every query of g against the oracle o, with
// floats compared bit for bit.
func assertGraphsMatch(t *testing.T, stage string, g *Graph, o *mapGraph) {
	t.Helper()
	n := g.NumVertices()
	if n != o.n {
		t.Fatalf("%s: NumVertices %d, oracle %d", stage, n, o.n)
	}
	if a, b := g.NumEdges(), o.NumEdges(); a != b {
		t.Fatalf("%s: NumEdges %d, oracle %d", stage, a, b)
	}
	for u := 0; u < n; u++ {
		if a, b := g.Successors(u), o.Successors(u); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Successors(%d) = %v, oracle %v", stage, u, a, b)
		}
		for v := 0; v < n; v++ {
			if a, b := g.HasEdge(u, v), o.HasEdge(u, v); a != b {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, oracle %v", stage, u, v, a, b)
			}
			if a, b := g.Weight(u, v), o.Weight(u, v); !sameFloat(a, b) {
				t.Fatalf("%s: Weight(%d,%d) = %v, oracle %v", stage, u, v, a, b)
			}
		}
	}
	assertEdgesMatch(t, stage+": Edges", g.Edges(), o.Edges())
	assertEdgesMatch(t, stage+": Undirected", g.Undirected().Edges(), o.Undirected().Edges())
	assertEdgesMatch(t, stage+": Clone", g.Clone().Edges(), o.Edges())
	if a, b := g.TotalWeight(), o.TotalWeight(); !sameFloat(a, b) {
		t.Fatalf("%s: TotalWeight %v, oracle %v", stage, a, b)
	}
	for _, stride := range []int{1, 2, 3} {
		block := make([]int, n)
		for v := range block {
			block[v] = (v / stride) % 2
		}
		if a, b := g.CutWeight(block), o.CutWeight(block); !sameFloat(a, b) {
			t.Fatalf("%s: CutWeight(%v) = %v, oracle %v", stage, block, a, b)
		}
	}
	if a, b := g.HasCycle(), o.HasCycle(); a != b {
		t.Fatalf("%s: HasCycle %v, oracle %v", stage, a, b)
	}
	if a, b := g.ConnectedComponents(), o.ConnectedComponents(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: ConnectedComponents %v, oracle %v", stage, a, b)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			pa, ca := g.ShortestPath(src, dst)
			pb, cb := o.ShortestPath(src, dst)
			if !reflect.DeepEqual(pa, pb) || !sameFloat(ca, cb) {
				t.Fatalf("%s: ShortestPath(%d,%d) = %v/%v, oracle %v/%v", stage, src, dst, pa, ca, pb, cb)
			}
			if a, b := g.HopDistance(src, dst), o.HopDistance(src, dst); a != b {
				t.Fatalf("%s: HopDistance(%d,%d) = %d, oracle %d", stage, src, dst, a, b)
			}
		}
	}
}

func assertEdgesMatch(t *testing.T, what string, a, b []Edge) {
	t.Helper()
	if len(a) != len(b) || (a == nil) != (b == nil) {
		t.Fatalf("%s: %v, oracle %v", what, a, b)
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || !sameFloat(a[i].Weight, b[i].Weight) {
			t.Fatalf("%s: edge %d = %+v, oracle %+v", what, i, a[i], b[i])
		}
	}
}

// sameFloat compares bit patterns, so +0/-0 and NaN payloads must agree.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
