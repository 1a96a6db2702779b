package synth

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"sunfloor3d/internal/contend"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/topology"
)

// DesignPoint is one explored topology with its evaluation.
type DesignPoint struct {
	// Topology is the synthesized NoC (nil for invalid points).
	Topology *topology.Topology
	// Metrics is the evaluation of Topology.
	Metrics topology.Metrics
	// FreqMHz is the NoC operating frequency of this point.
	FreqMHz float64
	// SwitchCount is the number of switches requested by the sweep (the
	// actual topology may contain more if indirect switches were inserted).
	SwitchCount int
	// Phase is 1 or 2 depending on which connectivity method produced it.
	Phase int
	// Theta is the SPG scaling factor used (0 when the plain PG sufficed).
	Theta float64
	// Valid reports whether the point meets all constraints.
	Valid bool
	// Pruned reports that the design-space explorer proved the point cannot
	// beat an already-explored point and skipped building it: the point is a
	// stub (Valid false, Phase 0, no Topology) whose FailReason names the
	// pruning decision. Pruning is exact — a pruned run's Pareto front and
	// best point are byte-identical to the exhaustive run's.
	Pruned bool
	// FailReason explains why an invalid point was rejected (or, for Pruned
	// and shard-skipped stubs, why it was not built).
	FailReason string
	// Route reports what the path-computation step did for this point
	// (deterministic given the topology, so identical between serial,
	// parallel, cached and uncached runs).
	Route route.Result
	// Sim holds the flit-level traffic simulation of the point (nil unless
	// Options.Sim requested simulation and the point is valid).
	Sim *sim.Stats
	// Contention holds the analytic M/D/1 contention estimate of the point
	// (nil unless Options.Contend is set and the point is valid).
	Contention *contend.Estimate
	// SimTriage records the fidelity-ladder decision for the point when
	// Options.SimBand is active: "sim" for points inside the estimated
	// Pareto band (fully simulated), "skip" for points outside it (analytic
	// estimate only). Empty without SimBand.
	SimTriage string
	// Survivability holds the fault-replay report of the point (nil unless
	// Options.Fault requested the fault model and the point is valid).
	Survivability *fault.Survivability
	// SimElapsed is the wall-clock time spent simulating the point (zero
	// when simulation was not requested or the point was invalid). It is
	// part of Elapsed.
	SimElapsed time.Duration
	// Elapsed is the wall-clock time spent building, routing and evaluating
	// this point.
	Elapsed time.Duration
}

// Cost returns the scalar objective of the point under the given weights.
func (d DesignPoint) Cost(powerWeight, latencyWeight float64) float64 {
	return powerWeight*d.Metrics.Power.TotalMW() + latencyWeight*d.Metrics.AvgLatencyCycles
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Points holds every explored design point (valid and invalid), ordered
	// by frequency then switch count.
	Points []DesignPoint
	// Best is the valid point with the lowest objective, or nil when no valid
	// point exists.
	Best *DesignPoint
	// Cache reports the partition-cache activity of the run.
	Cache CacheStats
}

// ValidPoints returns only the valid design points.
func (r *Result) ValidPoints() []DesignPoint {
	var out []DesignPoint
	for _, p := range r.Points {
		if p.Valid {
			out = append(out, p)
		}
	}
	return out
}

// ParetoFront returns the valid points that are not dominated in
// (power, latency) by any other valid point, sorted by power.
func (r *Result) ParetoFront() []DesignPoint {
	valid := r.ValidPoints()
	power := make([]float64, len(valid))
	latency := make([]float64, len(valid))
	for i, p := range valid {
		power[i] = p.Metrics.Power.TotalMW()
		latency[i] = p.Metrics.AvgLatencyCycles
	}
	idx := ParetoIndices(power, latency)
	front := make([]DesignPoint, len(idx))
	for i, j := range idx {
		front[i] = valid[j]
	}
	return front
}

// ParetoIndices returns the indices of the points that are not dominated in
// (power, latency) by any other point, sorted by ascending power, keeping one
// representative (the lowest index) per distinct (power, latency) pair. The
// inputs are parallel slices. The scan is the standard sort-based O(n log n)
// Pareto sweep: after ordering by (power, latency, index), a point is on the
// front exactly when its latency strictly improves on everything before it.
func ParetoIndices(power, latency []float64) []int {
	n := len(power)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if power[i] != power[j] {
			return power[i] < power[j]
		}
		if latency[i] != latency[j] {
			return latency[i] < latency[j]
		}
		return i < j
	})
	var front []int
	bestLatency := math.Inf(1)
	for _, i := range order {
		if latency[i] < bestLatency {
			front = append(front, i)
			bestLatency = latency[i]
		}
	}
	return front
}

// Synthesize runs the full SunFloor 3D flow on the design and returns all
// explored design points plus the best one. It is SynthesizeContext with a
// background context.
func Synthesize(g *model.CommGraph, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), g, opt)
}

// SynthesizeContext runs the full SunFloor 3D flow on the design under the
// given context. The frequency x switch-count sweep is decomposed into
// independent design-point evaluations executed on a bounded worker pool
// (Options.Parallelism wide); the ordering of Result.Points is deterministic
// and identical between serial and parallel runs. Cancelling the context
// stops the sweep promptly — points not yet started are abandoned — and
// returns the context's error.
func SynthesizeContext(ctx context.Context, g *model.CommGraph, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if g.NumCores() == 0 {
		return nil, fmt.Errorf("synth: design has no cores")
	}
	if g.NumFlows() == 0 {
		return nil, fmt.Errorf("synth: design has no communication flows")
	}

	p := newPool(ctx, opt)
	// The deferred close deregisters the run from its (possibly shared)
	// scheduler only after every stage has joined its workers, so a cancelled
	// run drains all in-flight evaluations before SynthesizeContext returns
	// and never leaks a goroutine or an evaluation slot.
	defer p.close()
	cache := newPartitionCache(g, opt.Partition)
	if opt.Space != nil {
		return exploreSpace(ctx, g, opt, cache, p)
	}
	perFreq := make([][]DesignPoint, len(opt.FrequenciesMHz))
	errs := make([]error, len(opt.FrequenciesMHz))
	if p.serial {
		// Serial reference path: one frequency after the other.
		for fi, freq := range opt.FrequenciesMHz {
			perFreq[fi], errs[fi] = synthesizeAtFrequency(g, opt, freq, cache, p)
			if errs[fi] != nil {
				break
			}
		}
	} else {
		// Each frequency sweep progresses independently; the pool bounds the
		// number of points in flight across all of them.
		var wg sync.WaitGroup
		for fi, freq := range opt.FrequenciesMHz {
			wg.Add(1)
			go func(fi int, freq float64) {
				defer wg.Done()
				perFreq[fi], errs[fi] = synthesizeAtFrequency(g, opt, freq, cache, p)
			}(fi, freq)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{}
	for _, pts := range perFreq {
		res.Points = append(res.Points, pts...)
	}
	// Fidelity ladder: with SimBand active, evaluation above attached only
	// the analytic estimate; cut the band over the whole sweep and simulate
	// just the points inside it. (Explorer runs triage per cell instead, in
	// exploreSpace, so checkpointed cells are final.)
	if err := triageSimBand(res.Points, opt, p); err != nil {
		return nil, err
	}
	res.Best = pickBest(res.Points, opt)
	if opt.LPOnBest && !opt.RunLPPlacement {
		refineBest(res, opt, place.OptimizeSwitchPositions)
	}
	res.Cache = cache.stats()
	return res, nil
}

// refineBest applies the switch-placement refinement to the winning design
// point. The refined topology is re-evaluated and re-checked against every
// constraint, and it replaces the best point only when it is still valid and
// does not worsen the objective; otherwise the unrefined point — which was
// already the minimum over all valid points — is kept, so Best never silently
// ships a refinement that broke a constraint or lost to another point.
func refineBest(res *Result, opt Options, refine func(*topology.Topology) error) {
	best := res.Best
	if best == nil || best.Topology == nil {
		return
	}
	refined := best.Topology.Clone()
	if err := refine(refined); err != nil {
		return
	}
	m := refined.Evaluate()
	if reason := validateTopology(refined, opt, m, best.FreqMHz); reason != "" {
		return
	}
	cost := opt.PowerWeight*m.Power.TotalMW() + opt.LatencyWeight*m.AvgLatencyCycles
	if cost > best.Cost(opt.PowerWeight, opt.LatencyWeight) {
		return
	}
	if opt.Sim != nil && (opt.SimBand == 0 || best.SimTriage == "sim") {
		// The refinement moved the switches, which changes link pipeline
		// depths; the attached simulation must describe the refined geometry.
		// Points the fidelity ladder triaged out stay unsimulated.
		simStart := time.Now() //determlint:wallclock SimElapsed is json-excluded observability plumbing and never reaches the serialised Result
		stats, err := sim.Run(refined, *opt.Sim)
		if err != nil {
			return
		}
		best.Sim = stats
		best.SimElapsed = time.Since(simStart) //determlint:wallclock SimElapsed is json-excluded observability plumbing and never reaches the serialised Result
	}
	if opt.Sparing != nil || opt.Fault != nil {
		// The refinement moved the switches, which changes the latency
		// baseline the survivability report inflates against; recompute it
		// for the refined geometry.
		rep, spareTSVs, err := faultReport(refined, opt, routeConfig(opt, best.FreqMHz, best.Phase == 2))
		if err != nil {
			return
		}
		best.Survivability = rep
		m.SpareTSVMacros = spareTSVs
	}
	if opt.Contend {
		// The estimate depends on the switch positions through the zero-load
		// latencies; recompute it for the accepted refined geometry.
		flits := 0
		if opt.Sim != nil {
			flits = opt.Sim.PacketFlits
		}
		best.Contention = contend.EstimatePoint(refined, flits)
	}
	best.Topology = refined
	best.Metrics = m
}

// pickBest returns a pointer to the best valid point in pts (the slice
// element itself, so later refinement updates the stored point too).
func pickBest(pts []DesignPoint, opt Options) *DesignPoint {
	bestIdx := -1
	bestCost := math.MaxFloat64
	for i, p := range pts {
		if !p.Valid {
			continue
		}
		c := p.Cost(opt.PowerWeight, opt.LatencyWeight)
		if c < bestCost {
			bestCost = c
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil
	}
	return &pts[bestIdx]
}

// timed runs one design-point build and stamps its wall-clock duration.
//
//determlint:wallclock Elapsed is json-excluded observability plumbing and never reaches the serialised Result
func timed(build func() DesignPoint) DesignPoint {
	start := time.Now()
	dp := build()
	dp.Elapsed = time.Since(start)
	return dp
}

// synthesizeAtFrequency explores all switch counts for one operating
// frequency, choosing Phase 1 / Phase 2 per the configured policy.
func synthesizeAtFrequency(g *model.CommGraph, opt Options, freq float64, cache *partitionCache, p *pool) ([]DesignPoint, error) {
	switch opt.Phase {
	case Phase2Only:
		return phase2Sweep(g, opt, freq, cache, p, nil)
	case Phase1Only:
		return phase1Sweep(g, opt, freq, false, cache, p)
	default:
		// Auto: Phase 1 with Phase 2 as fallback for unmet switch counts.
		return phase1Sweep(g, opt, freq, true, cache, p)
	}
}

// FailReason prefixes of the design points Algorithm 1 schedules but whose
// result it would discard, so it skips or shortens their work instead. Such
// points never reach Result.Points: a theta retry replaces its switch
// count's point only when valid, and a Phase-2 fallback point is used only
// when valid and its total switch count is still unmet. They still emit
// their progress event, so Event.Done and Event.Total are unchanged.
const (
	// ReasonDuplicateRetry marks a theta retry whose core assignment equals
	// one already tried, and failed, for the same switch count and
	// frequency. The topology is a function of the design, library,
	// frequency and blocks alone, so the retry would fail the same way.
	ReasonDuplicateRetry = "skipped: theta retry repeats an earlier core assignment"
	// ReasonFirstUnroutable marks a theta retry or Phase-2 fallback point
	// whose routing stopped at its first unroutable flow
	// (route.Config.StopAtFirstFailure): the point is invalid either way.
	ReasonFirstUnroutable = "stopped at the first unroutable flow"
	// ReasonUnneededFallback marks a Phase-2 fallback point whose total
	// switch count is not among the unmet counts, so it could not be used.
	ReasonUnneededFallback = "skipped: Phase-2 fallback point fills no unmet switch count"
)

// phase1Sweep implements Algorithm 1. The initial sweep over switch counts
// and every theta retry round fan out onto the worker pool; the rounds
// themselves stay sequential because each one only re-attempts the counts the
// previous round left unmet. When fallbackPhase2 is set, switch counts that
// remain unmet after the theta sweep are retried with the layer-by-layer
// method.
//
// A retry is discarded unless it is valid, so retries route with
// StopAtFirstFailure, and a retry whose core assignment repeats an earlier
// attempt of its switch count is not built at all (ReasonDuplicateRetry).
// Both shortcuts leave the Result unchanged.
func phase1Sweep(g *model.CommGraph, opt Options, freq float64, fallbackPhase2 bool, cache *partitionCache, p *pool) ([]DesignPoint, error) {
	// The explorer restricts the swept switch counts to an explicit list;
	// the classic sweep covers 1..NumCores. countOf maps a sweep slot to its
	// switch count, slotOf inverts it for the retry rounds (which track
	// counts, not slots).
	counts := opt.explCounts
	n := g.NumCores()
	if counts != nil {
		n = len(counts)
	}
	countOf := func(slot int) int {
		if counts == nil {
			return slot + 1
		}
		return counts[slot]
	}
	slotOf := func(count int) int {
		if counts == nil {
			return count - 1
		}
		for s, c := range counts {
			if c == count {
				return s
			}
		}
		return -1 // unreachable: retries only hold swept counts
	}
	// tried[slot] lists the core assignments already attempted for the
	// slot's switch count, all of which failed once the count is retried.
	tried := make([][][]int, n)
	pg := cache.pg(0)
	points := make([]DesignPoint, n)
	err := p.forEach(n,
		func(i int) DesignPoint {
			return timed(func() DesignPoint {
				k := countOf(i)
				// Branch and bound (explorer only): the bound is a function
				// of the frequency and switch count alone, so a pruned count
				// would be pruned identically on every theta retry and the
				// Phase-2 fallback.
				if opt.explPrune != nil {
					if reason := opt.explPrune(k); reason != "" {
						return DesignPoint{FreqMHz: freq, SwitchCount: k, Pruned: true, FailReason: reason}
					}
				}
				assign := cache.coreAssignment(pg, 0, k)
				tried[i] = [][]int{assign}
				return buildPhase1Point(g, opt, freq, assign, k, 0, false)
			})
		},
		func(i int, dp DesignPoint) { points[i] = dp })
	if err != nil {
		return nil, err
	}
	var unmet []int
	for i := range points {
		// Pruned stubs are proven unable to reach the front or the best
		// point, so they are never retried by theta rescaling or the Phase-2
		// fallback either.
		if !points[i].Valid && !points[i].Pruned {
			unmet = append(unmet, countOf(i))
		}
	}

	// Theta scaling loop (steps 11-19 of Algorithm 1).
	if len(unmet) > 0 && g.NumLayers() > 1 {
		for _, theta := range opt.Partition.ThetaSweep() {
			if len(unmet) == 0 {
				break
			}
			spg := cache.pg(theta)
			retried := make([]DesignPoint, len(unmet))
			assigns := make([][]int, len(unmet))
			err := p.forEach(len(unmet),
				func(j int) DesignPoint {
					return timed(func() DesignPoint {
						k := unmet[j]
						assigns[j] = cache.coreAssignment(spg, theta, k)
						for _, a := range tried[slotOf(k)] {
							if slices.Equal(a, assigns[j]) {
								return DesignPoint{FreqMHz: freq, SwitchCount: k, Phase: 1, Theta: theta, FailReason: ReasonDuplicateRetry}
							}
						}
						return buildPhase1Point(g, opt, freq, assigns[j], k, theta, true)
					})
				},
				func(j int, dp DesignPoint) { retried[j] = dp })
			if err != nil {
				return nil, err
			}
			var still []int
			for j, dp := range retried {
				slot := slotOf(unmet[j])
				if dp.Valid {
					points[slot] = dp
					continue
				}
				still = append(still, unmet[j])
				tried[slot] = append(tried[slot], assigns[j])
			}
			unmet = still
		}
	}

	// Optional Phase-2 fallback for counts that even the SPG could not fix.
	if fallbackPhase2 && len(unmet) > 0 && g.NumLayers() > 1 {
		p2, err := phase2Sweep(g, opt, freq, cache, p, unmet)
		if err != nil {
			return nil, err
		}
		for _, i := range unmet {
			// Find a valid Phase-2 point with a comparable total switch count.
			for _, dp := range p2 {
				if dp.Valid && dp.SwitchCount == i {
					points[slotOf(i)] = dp
					break
				}
			}
		}
	}
	return points, nil
}

// buildPhase1Point builds and evaluates the Phase-1 design point of the
// given core assignment (a switch-count-way partition of the PG for theta
// 0, of the theta-scaled SPG otherwise). failFast routes with
// StopAtFirstFailure, for points that are discarded unless valid.
func buildPhase1Point(g *model.CommGraph, opt Options, freq float64, assign []int, switches int, theta float64, failFast bool) DesignPoint {
	dp := DesignPoint{FreqMHz: freq, SwitchCount: switches, Phase: 1, Theta: theta}
	blocks := graph.Blocks(assign, switches)

	top := topology.New(g, opt.Lib, freq)
	maxSwSize := opt.Lib.MaxSwitchSize(freq)
	for _, block := range blocks {
		var layer int
		if opt.SwitchLayer == LayerMajority {
			layer = partition.SwitchLayerMajority(g, block)
		} else {
			layer = partition.SwitchLayerFromBlock(g, block)
		}
		sw := top.AddSwitch(layer)
		for _, c := range block {
			top.AttachCore(c, sw)
		}
		// Pruning: a switch that already needs more core ports than the
		// frequency allows can never close timing.
		if len(block) > maxSwSize {
			dp.FailReason = fmt.Sprintf("switch with %d cores exceeds max switch size %d at %.0f MHz",
				len(block), maxSwSize, freq)
		}
	}
	if dp.FailReason != "" {
		dp.Topology = top
		return dp
	}
	top.EstimateSwitchPositions()

	// Pruning 3: check the inter-layer links needed just by the core
	// attachments before spending time on path computation.
	if opt.MaxILL > 0 && top.MaxInterLayerLinks() > opt.MaxILL {
		dp.Topology = top
		dp.FailReason = fmt.Sprintf("core attachments alone need %d inter-layer links (max %d)",
			top.MaxInterLayerLinks(), opt.MaxILL)
		return dp
	}
	return runAndEvaluate(top, opt, routeConfig(opt, freq, false), dp, failFast)
}

// phase2Sweep implements Algorithm 2: layer-by-layer core-to-switch
// connectivity with adjacent-layer-only vertical links. Every sweep step
// (number of extra switches per layer) is an independent design point
// evaluated on the worker pool. want, when non-nil, lists the total switch
// counts the Phase-1 fallback can still use: the other points are not built
// (ReasonUnneededFallback) and the built ones route with
// StopAtFirstFailure, since only valid points are used. A standalone
// Phase-2 sweep passes nil and keeps every point.
func phase2Sweep(g *model.CommGraph, opt Options, freq float64, cache *partitionCache, p *pool, want []int) ([]DesignPoint, error) {
	lpgs, minPerLayer, maxExtra := phase2Plan(opt, freq, cache)
	points := make([]DesignPoint, maxExtra+1)
	err := p.forEach(maxExtra+1,
		func(i int) DesignPoint {
			return timed(func() DesignPoint { return buildPhase2Point(g, opt, freq, cache, lpgs, minPerLayer, i, want) })
		},
		func(i int, dp DesignPoint) { points[i] = dp })
	if err != nil {
		return nil, err
	}
	return points, nil
}

// phase2Plan computes the Phase-2 sweep prologue (steps 2-4 of Algorithm 2):
// the per-layer graphs, the minimum switches per layer, and the number of
// extra-switch steps to sweep. It is shared by phase2Sweep and by the
// explorer, which needs the sweep's point count (maxExtra+1) to shape the
// stubs of pruned and shard-skipped Phase-2 cells without building anything.
func phase2Plan(opt Options, freq float64, cache *partitionCache) (lpgs []partition.LPG, minPerLayer []int, maxExtra int) {
	lpgs = cache.layerGraphs()
	maxSwSize := opt.Lib.MaxSwitchSize(freq)

	minPerLayer = make([]int, len(lpgs))
	for j, l := range lpgs {
		n := len(l.Vertices)
		if n == 0 {
			minPerLayer[j] = 0
			continue
		}
		minPerLayer[j] = (n + maxSwSize - 1) / maxSwSize
		if extra := n - minPerLayer[j]; extra > maxExtra {
			maxExtra = extra
		}
	}
	if opt.MaxSwitchesPerLayer > 0 && maxExtra > opt.MaxSwitchesPerLayer {
		maxExtra = opt.MaxSwitchesPerLayer
	}
	return lpgs, minPerLayer, maxExtra
}

// buildPhase2Point builds and evaluates the Phase-2 design point with `extra`
// switches per layer beyond each layer's minimum. want is phase2Sweep's
// fallback filter. Every layer partition is fetched even for a skipped
// point, so the partition-cache counts do not depend on the filter.
func buildPhase2Point(g *model.CommGraph, opt Options, freq float64, cache *partitionCache, lpgs []partition.LPG, minPerLayer []int, extra int, want []int) DesignPoint {
	dp := DesignPoint{FreqMHz: freq, Phase: 2}
	nps := make([]int, len(lpgs))
	assigns := make([]map[int]int, len(lpgs))
	for j, l := range lpgs {
		if len(l.Vertices) == 0 {
			continue
		}
		np := minPerLayer[j] + extra
		if np > len(l.Vertices) {
			np = len(l.Vertices)
		}
		if np < 1 {
			np = 1
		}
		nps[j] = np
		assigns[j] = cache.lpgAssignment(j, l, np)
		dp.SwitchCount += np
	}
	if want != nil && !slices.Contains(want, dp.SwitchCount) {
		dp.FailReason = ReasonUnneededFallback
		return dp
	}
	top := topology.New(g, opt.Lib, freq)
	for j, l := range lpgs {
		if nps[j] == 0 {
			continue
		}
		// Create one switch per block on this layer.
		swOf := make(map[int]int, nps[j])
		for b := 0; b < nps[j]; b++ {
			swOf[b] = top.AddSwitch(l.Layer)
		}
		//determlint:ordered AttachCore writes CoreAttach[core] exactly once per distinct core; keyed writes commute, so attachment state is order-independent
		for core, block := range assigns[j] {
			top.AttachCore(core, swOf[block])
		}
	}
	top.EstimateSwitchPositions()
	return runAndEvaluate(top, opt, routeConfig(opt, freq, true), dp, want != nil)
}

func routeConfig(opt Options, freq float64, adjacentOnly bool) route.Config {
	cfg := route.DefaultConfig()
	cfg.MaxILL = opt.MaxILL
	cfg.SoftILLMargin = opt.SoftILLMargin
	cfg.MaxSwitchSize = opt.Lib.MaxSwitchSize(freq)
	cfg.AdjacentLayersOnly = adjacentOnly
	cfg.PowerWeight = opt.PowerWeight
	cfg.LatencyWeight = opt.LatencyWeight
	cfg.FullRebuild = opt.FullRebuildRouter
	return cfg
}

// runAndEvaluate routes, optionally LP-places, evaluates and validates a
// built design point, then attaches the estimates and reports the options
// request. failFast routes with StopAtFirstFailure; cfg itself, which the
// fault replay reuses, never carries it.
func runAndEvaluate(top *topology.Topology, opt Options, cfg route.Config, dp DesignPoint, failFast bool) DesignPoint {
	rcfg := cfg
	rcfg.StopAtFirstFailure = failFast
	res, err := route.ComputePaths(top, rcfg)
	dp.Topology = top
	if err != nil {
		dp.FailReason = err.Error()
		return dp
	}
	dp.Route = res
	if !res.Success() {
		if failFast {
			dp.FailReason = fmt.Sprintf("%s (flow %d)", ReasonFirstUnroutable, res.Failed[0])
		} else {
			dp.FailReason = fmt.Sprintf("%d flows could not be routed", len(res.Failed))
		}
		return dp
	}
	if opt.RunLPPlacement {
		if err := place.OptimizeSwitchPositions(top); err != nil {
			dp.FailReason = fmt.Sprintf("LP placement failed: %v", err)
			return dp
		}
	}
	dp.Metrics = top.Evaluate()
	if reason := validateTopology(top, opt, dp.Metrics, dp.FreqMHz); reason != "" {
		dp.FailReason = reason
		return dp
	}
	dp.Valid = true
	if opt.Contend {
		flits := 0
		if opt.Sim != nil {
			flits = opt.Sim.PacketFlits
		}
		dp.Contention = contend.EstimatePoint(top, flits)
	}
	// With SimBand active, simulation is deferred to the triage pass
	// (triageSimBand), which simulates only the estimated Pareto band.
	if opt.Sim != nil && opt.SimBand == 0 {
		simStart := time.Now() //determlint:wallclock SimElapsed is json-excluded observability plumbing and never reaches the serialised Result
		stats, err := sim.Run(top, *opt.Sim)
		if err != nil {
			dp.Valid = false
			dp.FailReason = fmt.Sprintf("simulation failed: %v", err)
			return dp
		}
		dp.Sim = stats
		dp.SimElapsed = time.Since(simStart) //determlint:wallclock SimElapsed is json-excluded observability plumbing and never reaches the serialised Result
	}
	if opt.Sparing != nil || opt.Fault != nil {
		rep, spareTSVs, err := faultReport(top, opt, cfg)
		if err != nil {
			dp.Valid = false
			dp.FailReason = fmt.Sprintf("fault model: %v", err)
			return dp
		}
		dp.Survivability = rep
		dp.Metrics.SpareTSVMacros = spareTSVs
	}
	return dp
}

// faultReport provisions the spare plan (when sparing is configured) and
// replays the fault model (when the fault model is configured) against a
// valid, routed design point. It returns the survivability report (nil
// without a fault model) and the number of spare TSV macros the sparing pass
// added (0 without sparing). Both passes are deterministic, so the report is
// byte-identical between serial, parallel, cached and uncached runs.
func faultReport(top *topology.Topology, opt Options, cfg route.Config) (*fault.Survivability, int, error) {
	var sp *fault.SparingPlan
	if opt.Sparing != nil {
		var err error
		sp, err = fault.BuildSparing(top, *opt.Sparing)
		if err != nil {
			return nil, 0, err
		}
	}
	spareTSVs := 0
	if sp != nil {
		spareTSVs = sp.SpareTSVs
	}
	if opt.Fault == nil {
		return nil, spareTSVs, nil
	}
	rep, err := fault.Replay(top, cfg, *opt.Fault, sp, opt.Sim)
	if err != nil {
		return nil, 0, err
	}
	return rep, spareTSVs, nil
}

// validateTopology checks an evaluated topology against the run's
// constraints, returning a failure reason or "" when every constraint holds.
func validateTopology(top *topology.Topology, opt Options, m topology.Metrics, freq float64) string {
	if opt.MaxILL > 0 && m.MaxILL > opt.MaxILL {
		return fmt.Sprintf("uses %d inter-layer links (max %d)", m.MaxILL, opt.MaxILL)
	}
	maxSw := opt.Lib.MaxSwitchSize(freq)
	in, out := top.SwitchPorts()
	for i := range in {
		if in[i] > maxSw || out[i] > maxSw {
			return fmt.Sprintf("switch %d has %dx%d ports (max %d at %.0f MHz)",
				i, in[i], out[i], maxSw, freq)
		}
	}
	if opt.RequireLatencyMet && m.LatencyViolations > 0 {
		return fmt.Sprintf("%d flows violate their latency constraint", m.LatencyViolations)
	}
	if opt.explTSVBudget > 0 && m.TSVMacros > opt.explTSVBudget {
		return fmt.Sprintf("needs %d TSV macros (budget %d)", m.TSVMacros, opt.explTSVBudget)
	}
	return ""
}
