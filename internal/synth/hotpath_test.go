package synth

import (
	"context"
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

// TestPartitionCacheCountsPinned pins the partition-cache hit and miss
// counts of two designs of the D_36_8 400/600/800 MHz sweep, as they
// stood before the sweep skipped any retry work. Algorithm 1 still fetches
// the partition of every retry it skips or stops early, so the counts match
// a replay that routes every retry.
func TestPartitionCacheCountsPinned(t *testing.T) {
	want := []CacheStats{{Hits: 207, Misses: 244}, {Hits: 201, Misses: 249}}
	for i, w := range want {
		seed := int64(i + 1)
		opt := DefaultOptions()
		opt.FrequenciesMHz = []float64{400, 600, 800}
		opt.Parallelism = 2
		res, err := Synthesize(bench.ByNameMust("D_36_8", seed).Graph3D, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != w {
			t.Errorf("D_36_8 seed %d: cache %+v, want %+v", seed, res.Cache, w)
		}
	}
}

// TestThetaRetriesMatchFullRetries checks the theta retry loop, which skips
// retries repeating an earlier core assignment and stops the others at their
// first unroutable flow, against building every attempt in full: each switch
// count must hold the first valid point among its theta = 0 build and its
// retries in ThetaSweep order, and a count whose every attempt is invalid
// must hold its invalid theta = 0 point or a Phase-2 fallback point. Routes
// are compared rather than metrics, which the LP refinement of the best
// point changes. D_26_media under max_ill 4 meets counts with retries.
func TestThetaRetriesMatchFullRetries(t *testing.T) {
	g := bench.D26Media(1).Graph3D
	opt := DefaultOptions()
	opt.FrequenciesMHz = []float64{400, 600, 800}
	opt.MaxILL = 4
	res, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	cache := newPartitionCache(g, opt.Partition)
	thetas := append([]float64{0}, opt.Partition.ThetaSweep()...)
	retried := 0
	for _, dp := range res.Points {
		k := dp.SwitchCount
		var first *DesignPoint
		for _, theta := range thetas {
			full := buildPhase1Point(g, opt, dp.FreqMHz, cache.coreAssignment(cache.pg(theta), theta, k), k, theta, false)
			if full.Valid {
				first = &full
				break
			}
		}
		switch {
		case first == nil:
			if dp.Phase == 1 && (dp.Valid || dp.Theta != 0) {
				t.Errorf("%.0f MHz, %d switches: no attempt is valid, but the Result holds a phase-1 point at theta %g", dp.FreqMHz, k, dp.Theta)
			}
		case dp.Phase != 1 || dp.Theta != first.Theta || !reflect.DeepEqual(dp.Route, first.Route):
			t.Errorf("%.0f MHz, %d switches: Result holds phase %d theta %g, the first valid attempt is theta %g", dp.FreqMHz, k, dp.Phase, dp.Theta, first.Theta)
		case first.Theta > 0:
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no switch count was met by a retry; the design no longer exercises the retry loop")
	}
}

// TestPhase2FallbackMatchesFullSweep checks the Phase-2 fallback, which
// builds only the points that fill an unmet switch count and stops their
// routing at the first unroutable flow, against the full Phase-2 sweep of
// each frequency. A count the fallback filled must hold the first valid full
// Phase-2 point of that count; a count left invalid must have none. D_26_media
// under max_ill 2 leaves counts unmet that the fallback fills.
func TestPhase2FallbackMatchesFullSweep(t *testing.T) {
	g := bench.D26Media(1).Graph3D
	opt := DefaultOptions()
	opt.FrequenciesMHz = []float64{400, 600, 800}
	opt.MaxILL = 2
	res, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// firstValid[freq][count] is the first valid point of the full sweep.
	firstValid := make(map[float64]map[int]DesignPoint)
	for _, freq := range opt.FrequenciesMHz {
		p := newPool(context.Background(), opt)
		full, err := phase2Sweep(g, opt, freq, newPartitionCache(g, opt.Partition), p, nil)
		p.close()
		if err != nil {
			t.Fatal(err)
		}
		firstValid[freq] = make(map[int]DesignPoint)
		for _, dp := range full {
			if _, seen := firstValid[freq][dp.SwitchCount]; dp.Valid && !seen {
				firstValid[freq][dp.SwitchCount] = dp
			}
		}
	}
	filled := 0
	for _, dp := range res.Points {
		want, ok := firstValid[dp.FreqMHz][dp.SwitchCount]
		switch {
		case dp.Phase == 2:
			filled++
			if !ok || !reflect.DeepEqual(dp.Metrics, want.Metrics) || !reflect.DeepEqual(dp.Route, want.Route) {
				t.Errorf("%.0f MHz, %d switches: fallback point differs from the full sweep's first valid point", dp.FreqMHz, dp.SwitchCount)
			}
		case !dp.Valid && ok:
			t.Errorf("%.0f MHz, %d switches: left invalid, but the full Phase-2 sweep has a valid point", dp.FreqMHz, dp.SwitchCount)
		}
	}
	if filled == 0 {
		t.Fatal("the fallback filled no switch count; the design no longer exercises it")
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
