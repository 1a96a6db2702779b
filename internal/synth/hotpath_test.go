package synth

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/topology"
)

// stripTimings zeroes the non-deterministic per-point durations so results
// can be compared structurally.
func stripTimings(res *Result) {
	for i := range res.Points {
		res.Points[i].Elapsed = 0
	}
}

// TestPartitionCacheEquivalence checks the sweep-level contract of the
// sweep-wide partition cache: a multi-frequency sweep reuses partitions
// across frequencies, and serial and parallel runs return identical design
// points. TestPartitionCacheMatchesDirectCalls pins every cached entry to a
// fresh computation.
func TestPartitionCacheEquivalence(t *testing.T) {
	g := smallDesign(t)
	serial := DefaultOptions()
	serial.FrequenciesMHz = []float64{400, 600, 800}
	serialRes, err := Synthesize(g, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := serial
	parallel.Parallelism = 8
	parallelRes, err := Synthesize(g, parallel)
	if err != nil {
		t.Fatal(err)
	}

	if serialRes.Cache.Hits == 0 {
		t.Error("multi-frequency sweep produced no cache hits")
	}
	stripTimings(serialRes)
	stripTimings(parallelRes)
	if len(parallelRes.Points) != len(serialRes.Points) {
		t.Fatalf("parallel run explored %d points, serial %d", len(parallelRes.Points), len(serialRes.Points))
	}
	for i := range serialRes.Points {
		a, b := serialRes.Points[i], parallelRes.Points[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("parallel run diverges at point %d:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
	bestA, bestB := serialRes.Best, parallelRes.Best
	if (bestA == nil) != (bestB == nil) {
		t.Fatal("parallel run best-point presence differs")
	}
	if bestA != nil && !reflect.DeepEqual(bestA.Metrics, bestB.Metrics) {
		t.Fatal("parallel run best metrics differ")
	}
}

// TestPartitionCacheMatchesDirectCalls checks that every lookup of the
// partition cache returns exactly what a fresh call of the partitioner
// returns — the PG and each theta-scaled SPG, every k-way core partition of
// them, the per-layer LPGs and every np-way LPG partition — while the
// lookups race from several goroutines, and that each entry is computed once.
func TestPartitionCacheMatchesDirectCalls(t *testing.T) {
	g := bench.D26Media(1).Graph3D
	par := partition.DefaultParams()
	thetas := append([]float64{0}, par.ThetaSweep()...)
	n := g.NumCores()

	// Every goroutine issues every lookup and records what it got.
	const workers = 4
	c := newPartitionCache(g, par)
	gotPGs := make([][]*graph.Graph, workers)
	gotAssigns := make([][][]int, workers)
	gotLPGs := make([][]partition.LPG, workers)
	gotLPGAssigns := make([][]map[int]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, theta := range thetas {
				pg := c.pg(theta)
				gotPGs[w] = append(gotPGs[w], pg)
				for k := 1; k <= n; k++ {
					gotAssigns[w] = append(gotAssigns[w], c.coreAssignment(pg, theta, k))
				}
			}
			gotLPGs[w] = c.layerGraphs()
			for j, l := range gotLPGs[w] {
				for np := 1; np <= len(l.Vertices); np++ {
					gotLPGAssigns[w] = append(gotLPGAssigns[w], c.lpgAssignment(j, l, np))
				}
			}
		}(w)
	}
	wg.Wait()

	// The same lookups, computed directly.
	var pgs []*graph.Graph
	var assigns [][]int
	var lpgAssigns []map[int]int
	base := partition.BuildPG(g, par.Alpha)
	for _, theta := range thetas {
		pg := base
		if theta != 0 {
			pg = partition.BuildSPGFrom(base, g, theta, par.ThetaMax)
		}
		pgs = append(pgs, pg)
		for k := 1; k <= n; k++ {
			assigns = append(assigns, partition.PartitionCores(pg, k))
		}
	}
	lpgs := partition.BuildLPGs(g, par)
	for _, l := range lpgs {
		for np := 1; np <= len(l.Vertices); np++ {
			lpgAssigns = append(lpgAssigns, partition.PartitionLPG(l, np))
		}
	}
	if len(lpgs) < 2 {
		t.Fatalf("design has %d layer graphs, want a multi-layer design", len(lpgs))
	}

	for w := 0; w < workers; w++ {
		for i, theta := range thetas {
			if !reflect.DeepEqual(gotPGs[w][i], pgs[i]) {
				t.Fatalf("goroutine %d: pg(%g) differs from a fresh build", w, theta)
			}
		}
		for i := range assigns {
			if !reflect.DeepEqual(gotAssigns[w][i], assigns[i]) {
				t.Fatalf("goroutine %d: coreAssignment(theta %g, k %d) differs from a fresh partition",
					w, thetas[i/n], i%n+1)
			}
		}
		if !reflect.DeepEqual(gotLPGs[w], lpgs) {
			t.Fatalf("goroutine %d: layerGraphs differs from a fresh BuildLPGs", w)
		}
		for i := range lpgAssigns {
			if !reflect.DeepEqual(gotLPGAssigns[w][i], lpgAssigns[i]) {
				t.Fatalf("goroutine %d: LPG assignment %d differs from a fresh partition", w, i)
			}
		}
	}

	// Each distinct entry is computed exactly once; every other lookup hits.
	entries := len(pgs) + len(assigns) + 1 + len(lpgAssigns)
	lookups := workers * entries
	if st := c.stats(); st.Misses != entries || st.Hits+st.Misses != lookups {
		t.Errorf("cache stats %+v, want %d misses out of %d lookups", st, entries, lookups)
	}
}

// TestFullRebuildRouterEquivalentSweep checks that the reference full-rebuild
// router and the incremental router agree on the sweep outcome (same validity
// pattern and best objective) on the small design, where arc costs have no
// exact ties.
func TestFullRebuildRouterEquivalentSweep(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	fast, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := opt
	ref.FullRebuildRouter = true
	slow, err := Synthesize(g, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Points) != len(slow.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(fast.Points), len(slow.Points))
	}
	for i := range fast.Points {
		if fast.Points[i].Valid != slow.Points[i].Valid {
			t.Errorf("point %d validity differs: incremental %v, rebuild %v",
				i, fast.Points[i].Valid, slow.Points[i].Valid)
		}
	}
	if fast.Best == nil || slow.Best == nil {
		t.Fatal("missing best point")
	}
	fc := fast.Best.Cost(opt.PowerWeight, opt.LatencyWeight)
	sc := slow.Best.Cost(opt.PowerWeight, opt.LatencyWeight)
	if diff := fc - sc; diff > 1e-6*sc || diff < -1e-6*sc {
		t.Errorf("best objective differs: incremental %v, rebuild %v", fc, sc)
	}
}

// TestRefineBestRejectsWorseningRefinement checks the LPOnBest fix: a
// refinement that worsens the objective must not overwrite the best point.
func TestRefineBestRejectsWorseningRefinement(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = false
	res, err := Synthesize(g, opt)
	if err != nil || res.Best == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	wantMetrics := res.Best.Metrics
	wantTop := res.Best.Topology

	scramble := func(top *topology.Topology) error {
		for i := range top.Switches {
			top.Switches[i].Pos = geom.Point{X: top.Switches[i].Pos.X + 500, Y: 500}
		}
		return nil
	}
	refineBest(res, opt, scramble)
	if res.Best.Topology != wantTop {
		t.Error("worsening refinement replaced the best topology")
	}
	if !reflect.DeepEqual(res.Best.Metrics, wantMetrics) {
		t.Errorf("worsening refinement overwrote metrics:\ngot  %+v\nwant %+v", res.Best.Metrics, wantMetrics)
	}
}

// TestRefineBestIgnoresFailedRefinement checks that a refiner error leaves
// the best point untouched.
func TestRefineBestIgnoresFailedRefinement(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = false
	res, err := Synthesize(g, opt)
	if err != nil || res.Best == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	wantMetrics := res.Best.Metrics
	refineBest(res, opt, func(*topology.Topology) error { return fmt.Errorf("no solution") })
	if !reflect.DeepEqual(res.Best.Metrics, wantMetrics) {
		t.Error("failed refinement changed the best point")
	}
}

// TestRefineBestKeepsBestMinimal checks that after the production LPOnBest
// refinement the best point is still valid and still the minimum-cost valid
// point — the invariant the old code could break.
func TestRefineBestKeepsBestMinimal(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = true
	res, err := Synthesize(g, opt)
	if err != nil || res.Best == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	if !res.Best.Valid {
		t.Fatal("refined best point is not valid")
	}
	if reason := validateTopology(res.Best.Topology, opt, res.Best.Metrics, res.Best.FreqMHz); reason != "" {
		t.Fatalf("refined best point violates constraints: %s", reason)
	}
	bestCost := res.Best.Cost(opt.PowerWeight, opt.LatencyWeight)
	for _, p := range res.ValidPoints() {
		if c := p.Cost(opt.PowerWeight, opt.LatencyWeight); c < bestCost-1e-9 {
			t.Errorf("refined best (%v) beaten by a point with cost %v", bestCost, c)
		}
	}

	noLP := opt
	noLP.LPOnBest = false
	plain, err := Synthesize(g, noLP)
	if err != nil || plain.Best == nil {
		t.Fatalf("unrefined synthesis failed: %v", err)
	}
	if bestCost > plain.Best.Cost(opt.PowerWeight, opt.LatencyWeight)+1e-9 {
		t.Errorf("LPOnBest worsened the shipped best: %v > %v",
			bestCost, plain.Best.Cost(opt.PowerWeight, opt.LatencyWeight))
	}
}

// bruteForcePareto is the quadratic reference: non-dominated points, deduped
// to the lowest index per (power, latency) pair, sorted like ParetoIndices.
func bruteForcePareto(power, latency []float64) []int {
	seen := make(map[[2]float64]bool)
	var front []int
	idx := make([]int, len(power))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if power[i] != power[j] {
			return power[i] < power[j]
		}
		if latency[i] != latency[j] {
			return latency[i] < latency[j]
		}
		return i < j
	})
	for _, i := range idx {
		dominated := false
		for j := range power {
			if i == j {
				continue
			}
			if power[j] <= power[i] && latency[j] <= latency[i] &&
				(power[j] < power[i] || latency[j] < latency[i]) {
				dominated = true
				break
			}
		}
		key := [2]float64{power[i], latency[i]}
		if !dominated && !seen[key] {
			seen[key] = true
			front = append(front, i)
		}
	}
	return front
}

func TestParetoIndicesDeduplicates(t *testing.T) {
	power := []float64{1, 1, 2, 3, 2}
	latency := []float64{5, 5, 4, 6, 4}
	got := ParetoIndices(power, latency)
	want := []int{0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParetoIndices = %v, want %v (duplicates kept?)", got, want)
	}
	if out := ParetoIndices(nil, nil); out != nil {
		t.Errorf("empty input returned %v", out)
	}
}

func TestParetoIndicesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		power := make([]float64, n)
		latency := make([]float64, n)
		for i := range power {
			// Coarse grid so exact duplicates and ties actually occur.
			power[i] = float64(rng.Intn(8))
			latency[i] = float64(rng.Intn(8))
		}
		got := ParetoIndices(power, latency)
		want := bruteForcePareto(power, latency)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ParetoIndices = %v, want %v\npower   %v\nlatency %v",
				trial, got, want, power, latency)
		}
		for i := 1; i < len(got); i++ {
			if power[got[i-1]] >= power[got[i]] {
				t.Fatalf("trial %d: front power not strictly increasing: %v", trial, got)
			}
			if latency[got[i-1]] <= latency[got[i]] {
				t.Fatalf("trial %d: front latency not strictly decreasing: %v", trial, got)
			}
		}
	}
}
