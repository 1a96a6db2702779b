package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	sf "sunfloor3d"
	"sunfloor3d/internal/contend"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/synth"
	"sunfloor3d/internal/topology"
)

// The replay re-runs the synthesis flow serially from the benchmark's own
// files, calling the exported functions of each layer package in the order
// internal/synth calls them, so that every call can be wrapped in a span
// without any tracing inside the program. It covers Algorithm 1 (θ = 0
// pass, θ retries for the counts the first pass left unmet, the Phase-2
// fallback), evaluation, the contention estimate, simulation of the points
// the Result triaged to "sim", fault replay and the LP refinement of the
// best point. It replays only the points the Result did not mark Pruned and
// takes the triage marks from the Result; it never re-derives either. Its
// output is checked against the Result (replayFidelity) before any of its
// numbers are used.

// replayPoint is one replayed design point.
type replayPoint struct {
	top     *topology.Topology
	metrics topology.Metrics
	freq    float64
	count   int
	phase   int
	theta   float64
	valid   bool
	sim     *sim.Stats
}

// replayer holds the state of one replayed synthesis run.
type replayer struct {
	tr  *tracer
	g   *model.CommGraph
	opt synth.Options

	pgs        map[float64]*graph.Graph
	assigns    map[[2]float64][]int
	lpgs       []partition.LPG
	lpgDone    bool
	lpgAssigns map[[2]float64]map[int]int
	hits       int
	misses     int

	routeCalls  int
	routeUseful int
	simCycles   int64
	faultPlans  int
}

// replayGroup is one single-frequency sweep of the flow: a classic
// frequency, or one explorer cell. counts lists the switch counts to
// replay; count k sits at index k-1 of the group.
type replayGroup struct {
	freq   float64
	lw     int // link width override of an explorer cell (0 = none)
	counts []int
	size   int // points the group contributes to Result.Points
	// computed is false for an explorer cell the Result stubbed out whole
	// as a duplicate of its probe cell; such a cell never reaches the flow.
	computed bool
}

func newReplayer(tr *tracer, g *model.CommGraph, opt synth.Options) *replayer {
	return &replayer{
		tr: tr, g: g, opt: opt,
		pgs:        make(map[float64]*graph.Graph),
		assigns:    make(map[[2]float64][]int),
		lpgAssigns: make(map[[2]float64]map[int]int),
	}
}

// groups derives the replayed groups of the run from the options and the
// Result: every classic frequency, or every explorer cell with at least one
// point the Result did not prune.
func (r *replayer) groups(res *sf.Result) ([]replayGroup, error) {
	n := r.g.NumCores()
	all := func(int) []int {
		c := make([]int, n)
		for i := range c {
			c[i] = i + 1
		}
		return c
	}
	var gs []replayGroup
	if r.opt.Space == nil {
		for _, f := range r.opt.FrequenciesMHz {
			gs = append(gs, replayGroup{freq: f, counts: all(n), size: n, computed: true})
		}
	} else {
		// Only freq_mhz and link_width_bits axes are replayed; cells are
		// enumerated frequency-major, link width innermost, as the explorer
		// does.
		var freqs, lws []float64
		for _, a := range r.opt.Space.Axes {
			switch a.Name {
			case synth.AxisFreqMHz:
				freqs = a.Values
			case synth.AxisLinkWidthBits:
				lws = a.Values
			default:
				return nil, fmt.Errorf("replay: axis %s is not replayed", a.Name)
			}
		}
		if freqs == nil {
			freqs = r.opt.FrequenciesMHz
		}
		if lws == nil {
			lws = []float64{0}
		}
		for _, f := range freqs {
			for _, lw := range lws {
				gs = append(gs, replayGroup{freq: f, lw: int(lw), size: n})
			}
		}
		if len(gs)*n != len(res.Points) {
			return nil, fmt.Errorf("replay: %d cells x %d points != %d Result points", len(gs), n, len(res.Points))
		}
		for gi := range gs {
			for i := 0; i < n; i++ {
				p := res.Points[gi*n+i]
				if !p.Pruned {
					gs[gi].counts = append(gs[gi].counts, i+1)
				}
				if !strings.HasPrefix(p.FailReason, "pruned: duplicate") {
					gs[gi].computed = true
				}
			}
		}
	}
	return gs, nil
}

// run replays the whole synthesis and returns the replayed points laid out
// like Result.Points (nil where the Result holds a pruned stub).
func (r *replayer) run(res *sf.Result) ([]*replayPoint, error) {
	gs, err := r.groups(res)
	if err != nil {
		return nil, err
	}
	out := make([]*replayPoint, 0, len(res.Points))
	for _, g := range gs {
		opt := r.opt
		if g.lw > 0 {
			opt.Lib.LinkWidthBits = g.lw
		}
		pts := make([]*replayPoint, g.size)
		if g.computed {
			r.phase1Sweep(opt, g.freq, g.counts, pts)
		}
		out = append(out, pts...)
	}
	if len(out) != len(res.Points) {
		return nil, fmt.Errorf("replay: %d replayed points, Result has %d", len(out), len(res.Points))
	}
	// Simulation: inline on every valid point without a band; with the
	// fidelity ladder, on the points the Result triaged to "sim".
	if r.opt.Sim != nil {
		for i, p := range out {
			if p == nil || !p.valid {
				continue
			}
			if r.opt.SimBand > 0 && res.Points[i].SimTriage != "sim" {
				continue
			}
			var stats *sim.Stats
			var serr error
			r.tr.do("sim", func() { stats, serr = sim.Run(p.top, *r.opt.Sim) })
			if serr != nil {
				return nil, fmt.Errorf("replay: simulating point %d: %w", i, serr)
			}
			p.sim = stats
			r.simCycles += stats.Cycles
		}
	}
	if r.opt.Space == nil && r.opt.LPOnBest && !r.opt.RunLPPlacement {
		r.refineBest(out, res)
	}
	return out, nil
}

// phase1Sweep mirrors Algorithm 1 for one group: the θ = 0 pass, the θ
// retries of the unmet counts and the Phase-2 fallback.
func (r *replayer) phase1Sweep(opt synth.Options, freq float64, counts []int, pts []*replayPoint) {
	pg := r.pg(0)
	var unmet []int
	for _, k := range counts {
		p := r.phase1Point(opt, freq, pg, k, 0)
		pts[k-1] = p
		if !p.valid {
			unmet = append(unmet, k)
		}
	}
	if len(unmet) > 0 && r.g.NumLayers() > 1 {
		for _, theta := range opt.Partition.ThetaSweep() {
			if len(unmet) == 0 {
				break
			}
			spg := r.pg(theta)
			var still []int
			for _, k := range unmet {
				if p := r.phase1Point(opt, freq, spg, k, theta); p.valid {
					pts[k-1] = p
				} else {
					still = append(still, k)
				}
			}
			unmet = still
		}
	}
	if len(unmet) > 0 && r.g.NumLayers() > 1 {
		p2 := r.phase2Sweep(opt, freq)
		for _, k := range unmet {
			for _, p := range p2 {
				if p.valid && p.count == k {
					pts[k-1] = p
					break
				}
			}
		}
	}
}

// pg returns the PG (θ = 0) or SPG of the run, building it once.
func (r *replayer) pg(theta float64) *graph.Graph {
	if g, ok := r.pgs[theta]; ok {
		r.hits++
		return g
	}
	r.misses++
	if _, ok := r.pgs[0]; !ok && theta != 0 {
		// The SPG is built from the PG; the cache builds that dependency
		// through an uncounted inner lookup.
		r.tr.do("partition", func() { r.pgs[0] = partition.BuildPG(r.g, r.opt.Partition.Alpha) })
	}
	var g *graph.Graph
	r.tr.do("partition", func() {
		if theta == 0 {
			g = partition.BuildPG(r.g, r.opt.Partition.Alpha)
		} else {
			g = partition.BuildSPGFrom(r.pgs[0], r.g, theta, r.opt.Partition.ThetaMax)
		}
	})
	r.pgs[theta] = g
	return g
}

func (r *replayer) coreAssignment(pg *graph.Graph, theta float64, k int) []int {
	key := [2]float64{theta, float64(k)}
	if a, ok := r.assigns[key]; ok {
		r.hits++
		return a
	}
	r.misses++
	var a []int
	r.tr.do("partition", func() { a = partition.PartitionCores(pg, k) })
	r.assigns[key] = a
	return a
}

func (r *replayer) layerGraphs() []partition.LPG {
	if r.lpgDone {
		r.hits++
		return r.lpgs
	}
	r.misses++
	r.tr.do("partition", func() { r.lpgs = partition.BuildLPGs(r.g, r.opt.Partition) })
	r.lpgDone = true
	return r.lpgs
}

func (r *replayer) lpgAssignment(layerIdx int, l partition.LPG, np int) map[int]int {
	key := [2]float64{float64(layerIdx), float64(np)}
	if a, ok := r.lpgAssigns[key]; ok {
		r.hits++
		return a
	}
	r.misses++
	var a map[int]int
	r.tr.do("partition", func() { a = partition.PartitionLPG(l, np) })
	r.lpgAssigns[key] = a
	return a
}

// phase1Point mirrors the Phase-1 build of one switch count.
func (r *replayer) phase1Point(opt synth.Options, freq float64, pg *graph.Graph, k int, theta float64) *replayPoint {
	pi := r.tr.begin("point")
	defer r.tr.end(pi)
	p := &replayPoint{freq: freq, count: k, phase: 1, theta: theta}
	assign := r.coreAssignment(pg, theta, k)
	var blocks [][]int
	var layers []int
	r.tr.do("partition", func() {
		blocks = graph.Blocks(assign, k)
		for _, b := range blocks {
			if opt.SwitchLayer == synth.LayerMajority {
				layers = append(layers, partition.SwitchLayerMajority(r.g, b))
			} else {
				layers = append(layers, partition.SwitchLayerFromBlock(r.g, b))
			}
		}
	})
	maxSw := opt.Lib.MaxSwitchSize(freq)
	oversize := false
	r.tr.do("topology.build", func() {
		p.top = topology.New(r.g, opt.Lib, freq)
		for bi, b := range blocks {
			sw := p.top.AddSwitch(layers[bi])
			for _, c := range b {
				p.top.AttachCore(c, sw)
			}
			if len(b) > maxSw {
				oversize = true
			}
		}
		if !oversize {
			p.top.EstimateSwitchPositions()
		}
	})
	if oversize || (opt.MaxILL > 0 && p.top.MaxInterLayerLinks() > opt.MaxILL) {
		return p
	}
	r.finish(opt, p, false)
	return p
}

// phase2Sweep mirrors Algorithm 2 for one frequency.
func (r *replayer) phase2Sweep(opt synth.Options, freq float64) []*replayPoint {
	lpgs := r.layerGraphs()
	maxSw := opt.Lib.MaxSwitchSize(freq)
	minPerLayer := make([]int, len(lpgs))
	maxExtra := 0
	for j, l := range lpgs {
		n := len(l.Vertices)
		if n == 0 {
			continue
		}
		minPerLayer[j] = (n + maxSw - 1) / maxSw
		if extra := n - minPerLayer[j]; extra > maxExtra {
			maxExtra = extra
		}
	}
	if opt.MaxSwitchesPerLayer > 0 && maxExtra > opt.MaxSwitchesPerLayer {
		maxExtra = opt.MaxSwitchesPerLayer
	}
	out := make([]*replayPoint, maxExtra+1)
	for extra := range out {
		pi := r.tr.begin("point")
		p := &replayPoint{freq: freq, phase: 2}
		type layerPlan struct {
			layer  int
			np     int
			assign map[int]int
		}
		var plans []layerPlan
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
			plans = append(plans, layerPlan{layer: l.Layer, np: np, assign: r.lpgAssignment(j, l, np)})
			p.count += np
		}
		r.tr.do("topology.build", func() {
			p.top = topology.New(r.g, opt.Lib, freq)
			for _, lp := range plans {
				swOf := make([]int, lp.np)
				for b := range swOf {
					swOf[b] = p.top.AddSwitch(lp.layer)
				}
				for core, block := range lp.assign {
					p.top.AttachCore(core, swOf[block])
				}
			}
			p.top.EstimateSwitchPositions()
		})
		r.finish(opt, p, true)
		r.tr.end(pi)
		out[extra] = p
	}
	return out
}

// routeConfig mirrors the router configuration internal/synth derives from
// the options.
func routeConfig(opt synth.Options, freq float64, adjacentOnly bool) route.Config {
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

// finish routes, evaluates and validates a built point, then attaches the
// contention estimate and the fault report of valid points.
func (r *replayer) finish(opt synth.Options, p *replayPoint, adjacentOnly bool) {
	cfg := routeConfig(opt, p.freq, adjacentOnly)
	var res route.Result
	var err error
	r.routeCalls++
	r.tr.do("route", func() { res, err = route.ComputePaths(p.top, cfg) })
	if err != nil || !res.Success() {
		return
	}
	if opt.RunLPPlacement {
		var perr error
		r.tr.do("place", func() { perr = place.OptimizeSwitchPositions(p.top) })
		if perr != nil {
			return
		}
	}
	r.tr.do("topology.eval", func() { p.metrics = p.top.Evaluate() })
	if !valid(p.top, opt, p.metrics, p.freq) {
		return
	}
	p.valid = true
	r.routeUseful++
	if opt.Contend {
		flits := 0
		if opt.Sim != nil {
			flits = opt.Sim.PacketFlits
		}
		r.tr.do("contend", func() { contend.EstimatePoint(p.top, flits) })
	}
	if opt.Sparing != nil || opt.Fault != nil {
		spares, ok := r.faultReport(opt, p.top, cfg)
		if !ok {
			p.valid = false
			return
		}
		p.metrics.SpareTSVMacros = spares
	}
}

// faultReport mirrors the sparing and fault-replay pass of a valid point,
// returning the spare TSV macro count.
func (r *replayer) faultReport(opt synth.Options, top *topology.Topology, cfg route.Config) (int, bool) {
	var sp *fault.SparingPlan
	var err error
	r.tr.do("fault", func() {
		if opt.Sparing != nil {
			sp, err = fault.BuildSparing(top, *opt.Sparing)
			if err != nil {
				return
			}
		}
		if opt.Fault != nil {
			var rep *fault.Survivability
			rep, err = fault.Replay(top, cfg, *opt.Fault, sp, opt.Sim)
			if err == nil {
				r.faultPlans += rep.Plans
			}
		}
	})
	if err != nil {
		return 0, false
	}
	if sp == nil {
		return 0, true
	}
	return sp.SpareTSVs, true
}

// valid mirrors the constraint check of internal/synth.
func valid(top *topology.Topology, opt synth.Options, m topology.Metrics, freq float64) bool {
	if opt.MaxILL > 0 && m.MaxILL > opt.MaxILL {
		return false
	}
	maxSw := opt.Lib.MaxSwitchSize(freq)
	in, out := top.SwitchPorts()
	for i := range in {
		if in[i] > maxSw || out[i] > maxSw {
			return false
		}
	}
	return !(opt.RequireLatencyMet && m.LatencyViolations > 0)
}

// cost is the scalar objective of a replayed point.
func (r *replayer) cost(m topology.Metrics) float64 {
	return r.opt.PowerWeight*m.Power.TotalMW() + r.opt.LatencyWeight*m.AvgLatencyCycles
}

// bestIndex mirrors the best-point pick: the first valid point of lowest
// objective.
func (r *replayer) bestIndex(pts []*replayPoint) int {
	best, bestCost := -1, math.MaxFloat64
	for i, p := range pts {
		if p != nil && p.valid {
			if c := r.cost(p.metrics); c < bestCost {
				best, bestCost = i, c
			}
		}
	}
	return best
}

// refineBest mirrors the LP refinement of the classic sweep's best point:
// the refined clone replaces it only when it stays valid and does not
// worsen the objective.
func (r *replayer) refineBest(pts []*replayPoint, res *sf.Result) {
	bi := r.bestIndex(pts)
	if bi < 0 {
		return
	}
	best := pts[bi]
	refined := best.top.Clone()
	var err error
	r.tr.do("place", func() { err = place.OptimizeSwitchPositions(refined) })
	if err != nil {
		return
	}
	var m topology.Metrics
	r.tr.do("topology.eval", func() { m = refined.Evaluate() })
	if !valid(refined, r.opt, m, best.freq) || r.cost(m) > r.cost(best.metrics) {
		return
	}
	if r.opt.Sim != nil && (r.opt.SimBand == 0 || res.Points[bi].SimTriage == "sim") {
		var stats *sim.Stats
		r.tr.do("sim", func() { stats, err = sim.Run(refined, *r.opt.Sim) })
		if err != nil {
			return
		}
		best.sim = stats
		r.simCycles += stats.Cycles
	}
	if r.opt.Sparing != nil || r.opt.Fault != nil {
		spares, ok := r.faultReport(r.opt, refined, routeConfig(r.opt, best.freq, best.phase == 2))
		if !ok {
			return
		}
		m.SpareTSVMacros = spares
	}
	if r.opt.Contend {
		flits := 0
		if r.opt.Sim != nil {
			flits = r.opt.Sim.PacketFlits
		}
		r.tr.do("contend", func() { contend.EstimatePoint(refined, flits) })
	}
	best.top = refined
	best.metrics = m
}

// facadeMetrics converts replayed metrics to the facade's serialised form.
func facadeMetrics(m topology.Metrics) sf.Metrics {
	return sf.Metrics{
		Power: sf.PowerBreakdown{
			SwitchMW:     m.Power.SwitchMW,
			SwitchLinkMW: m.Power.SwitchLinkMW,
			CoreLinkMW:   m.Power.CoreLinkMW,
			NIMW:         m.Power.NIMW,
		},
		AvgLatencyCycles:  m.AvgLatencyCycles,
		MaxLatencyCycles:  m.MaxLatencyCycles,
		TotalWireLengthMM: m.TotalWireLengthMM,
		NoCAreaMM2:        m.NoCAreaMM2,
		MaxILL:            m.MaxILL,
		TSVMacros:         m.TSVMacros,
		NumSwitches:       m.NumSwitches,
		LatencyViolations: m.LatencyViolations,
		SpareTSVMacros:    m.SpareTSVMacros,
		WireLengthsMM:     append([]float64(nil), m.WireLengthsMM...),
	}
}

// replayFidelity compares the replay with the program's Result: the same
// valid-point set (frequency, switch count, phase, θ), byte-identical
// Metrics and simulation Stats on every valid point, and the same partition
// cache activity (the caller compares the best point). It returns every divergence found.
func replayFidelity(res *sf.Result, pts []*replayPoint, hits, misses int) []string {
	var bad []string
	if len(pts) != len(res.Points) {
		return []string{fmt.Sprintf("replay has %d points, Result %d", len(pts), len(res.Points))}
	}
	for i, rp := range res.Points {
		p := pts[i]
		if rp.Pruned {
			if p != nil {
				bad = append(bad, fmt.Sprintf("point %d: replayed a pruned point", i))
			}
			continue
		}
		if p == nil {
			bad = append(bad, fmt.Sprintf("point %d: not replayed", i))
			continue
		}
		if p.valid != rp.Valid {
			bad = append(bad, fmt.Sprintf("point %d (%.0f MHz, %d switches): valid %v, Result %v", i, rp.FreqMHz, rp.SwitchCount, p.valid, rp.Valid))
			continue
		}
		if !rp.Valid {
			continue
		}
		if p.freq != rp.FreqMHz || p.count != rp.SwitchCount || p.phase != rp.Phase || p.theta != rp.Theta {
			bad = append(bad, fmt.Sprintf("point %d: replayed (%.0f MHz, %d sw, phase %d, θ %g), Result (%.0f MHz, %d sw, phase %d, θ %g)",
				i, p.freq, p.count, p.phase, p.theta, rp.FreqMHz, rp.SwitchCount, rp.Phase, rp.Theta))
			continue
		}
		a, _ := json.Marshal(facadeMetrics(p.metrics))
		b, _ := json.Marshal(rp.Metrics)
		if !bytes.Equal(a, b) {
			bad = append(bad, fmt.Sprintf("point %d (%.0f MHz, %d switches): replayed metrics %s differ from %s", i, rp.FreqMHz, rp.SwitchCount, a, b))
		}
		a, _ = json.Marshal(p.sim)
		b, _ = json.Marshal(rp.Sim)
		if !bytes.Equal(a, b) {
			bad = append(bad, fmt.Sprintf("point %d (%.0f MHz, %d switches): replayed simulation differs", i, rp.FreqMHz, rp.SwitchCount))
		}
	}
	if res.Cache.Hits != hits || res.Cache.Misses != misses {
		bad = append(bad, fmt.Sprintf("partition cache: replay %d hits/%d misses, Result %d/%d", hits, misses, res.Cache.Hits, res.Cache.Misses))
	}
	return bad
}
