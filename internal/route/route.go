// Package route implements the path-computation step of Section VI of the
// paper: establishing physical links between switches and assigning a path to
// every traffic flow, driven by the marginal power and latency cost of using
// or opening each link, while honouring the 3-D technology constraints of
// Algorithm 3 (maximum inter-layer links, maximum switch size, both with hard
// INF and soft SOFT_INF thresholds) and keeping the routes free of routing
// deadlocks via a channel-dependency-graph acyclicity check. When the switch
// size constraint cannot be met, indirect switches are inserted to connect
// other switches together, as described at the end of Section VI.
package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// Config controls the path computation.
type Config struct {
	// MaxILL is the maximum number of links allowed to cross any adjacent
	// layer boundary (the paper's max_ill). Zero means unconstrained.
	MaxILL int
	// SoftILLMargin is how many links below MaxILL the soft threshold sits
	// (the paper found 2-3 to work well).
	SoftILLMargin int
	// MaxSwitchSize is the maximum number of input or output ports per
	// switch (max_sw_size). Zero means unconstrained.
	MaxSwitchSize int
	// SoftSwitchMargin is how many ports below MaxSwitchSize the soft
	// threshold sits.
	SoftSwitchMargin int
	// AdjacentLayersOnly forbids physical links spanning two or more layers
	// (Phase 2 and technologies without multi-layer TSV stacks).
	AdjacentLayersOnly bool
	// PowerWeight and LatencyWeight blend the two objectives in the link
	// cost. They need not sum to one.
	PowerWeight, LatencyWeight float64
	// AllowIndirectSwitches lets the router insert extra switches when no
	// valid path exists under the switch-size constraint.
	AllowIndirectSwitches bool
	// MaxDeadlockRetries bounds how many times a flow's path is recomputed
	// with penalised arcs after a channel-dependency cycle is detected.
	MaxDeadlockRetries int
	// FullRebuild disables the incrementally maintained cost graph and
	// rebuilds the full O(S^2) arc-cost graph for every flow and deadlock
	// retry, as the original CHECK_CONSTRAINTS loop does. It exists as the
	// reference implementation for equivalence tests and before/after
	// benchmarks; production runs should leave it off.
	FullRebuild bool
	// StopAtFirstFailure ends the run at the first flow, in routing order,
	// that cannot be routed: Result.Failed then lists that one flow, and the
	// routes committed before it are exactly those of the full run. It is
	// for callers that discard every point with an unroutable flow, which
	// learn that verdict without routing the rest. The topology is left
	// partially routed, so it must not be evaluated or repaired afterwards;
	// RepairRoutes ignores the field.
	StopAtFirstFailure bool
}

// DefaultConfig returns the configuration used by the experiments: a blend
// strongly favouring power (as in the paper's "most power-efficient" points),
// soft margins of 2, and indirect switch insertion enabled.
func DefaultConfig() Config {
	return Config{
		MaxILL:                0,
		SoftILLMargin:         2,
		MaxSwitchSize:         0,
		SoftSwitchMargin:      1,
		AdjacentLayersOnly:    false,
		PowerWeight:           1.0,
		LatencyWeight:         0.1,
		AllowIndirectSwitches: true,
		MaxDeadlockRetries:    4,
	}
}

// Result reports what the router did.
type Result struct {
	// Routed is the number of flows that received a valid path.
	Routed int
	// Failed lists the flows that could not be routed under the constraints.
	Failed []int
	// IndirectSwitches is the number of switches added by the router.
	IndirectSwitches int
	// DeadlockRetries counts path recomputations forced by channel
	// dependency cycles.
	DeadlockRetries int
}

// Success reports whether every flow was routed.
func (r Result) Success() bool { return len(r.Failed) == 0 }

// router carries the mutable state of one ComputePaths run.
type router struct {
	top *topology.Topology
	cfg Config

	// exists[from][to] reports whether the directed physical link between
	// two switches already carries traffic.
	exists [][]bool
	// ill[b] is the number of physical links crossing the boundary between
	// layers b and b+1 (switch-to-switch and core-to-switch).
	ill []int
	// inPorts/outPorts track current switch sizes.
	inPorts, outPorts []int
	// cdg is the channel dependency graph: one vertex per directed
	// switch-to-switch link, an edge when some flow uses two links in
	// sequence.
	cdg *graph.Graph
	// linkIdx[from][to] is the CDG vertex of the directed link, -1 while
	// no flow has been tested over it.
	linkIdx  [][]int32
	deadlock int
	// softInf is the SOFT_INF penalty of Algorithm 3, fixed for the whole
	// run (it depends only on the design, library, frequency and weights).
	softInf float64
	// allowed, when non-nil, restricts routing to the arcs (i, j) with
	// allowed[i][j] set. It is the repair-mode overlay: on a fabricated chip
	// only the links that were actually built (minus the failed ones) are
	// usable, whatever their current cost would be. nil (the synthesis case)
	// allows every arc.
	allowed [][]bool
	// cost is the incrementally maintained arc-cost graph (nil when
	// Config.FullRebuild selects the reference per-flow rebuild).
	cost *costModel
}

// ComputePaths assigns a route to every flow of the topology. Switches and
// core attachments must already be in place (and switch positions estimated);
// existing routes are discarded.
func ComputePaths(t *topology.Topology, cfg Config) (Result, error) {
	if t.NumSwitches() == 0 {
		return Result{}, fmt.Errorf("route: topology has no switches")
	}
	for c, sw := range t.CoreAttach {
		if sw < 0 || sw >= t.NumSwitches() {
			return Result{}, fmt.Errorf("route: core %d is not attached to a switch", c)
		}
	}
	r := &router{top: t, cfg: cfg}
	r.init()

	var res Result
	// Route flows in decreasing bandwidth order so the heaviest flows get the
	// cheapest paths (same strategy as the 2-D flow of [16]).
	for _, f := range t.Design.FlowsByBandwidth() {
		if ok := r.routeFlow(f); ok {
			res.Routed++
		} else if cfg.AllowIndirectSwitches {
			routed, kept := r.tryWithIndirectSwitch(f)
			if routed {
				res.Routed++
				if kept {
					res.IndirectSwitches++
				}
			} else {
				res.Failed = append(res.Failed, f)
			}
		} else {
			res.Failed = append(res.Failed, f)
		}
		if cfg.StopAtFirstFailure && len(res.Failed) > 0 {
			break
		}
	}
	sort.Ints(res.Failed)
	res.DeadlockRetries = r.deadlock
	return res, nil
}

// init seeds the bookkeeping with the core attachments (which are fixed
// before path computation) and empty switch-to-switch connectivity.
func (r *router) init() {
	t := r.top
	layers := t.Design.NumLayers()
	for _, s := range t.Switches {
		if s.Layer+1 > layers {
			layers = s.Layer + 1
		}
	}
	if layers > 1 {
		r.ill = make([]int, layers-1)
	}
	n := t.NumSwitches()
	r.inPorts = make([]int, n)
	r.outPorts = make([]int, n)
	r.exists = newSquare(n, false)
	r.linkIdx = newSquare(n, int32(-1))
	r.cdg = graph.New(0)

	for c, sw := range t.CoreAttach {
		r.inPorts[sw]++
		r.outPorts[sw]++
		r.addBoundaryCrossings(t.Design.Cores[c].Layer, t.Switches[sw].Layer, 1)
	}
	for f := range t.Routes {
		t.Routes[f] = topology.Route{Flow: f}
	}
	r.softInf = 10 * r.maxFlowCost()
	if !r.cfg.FullRebuild {
		r.cost = newCostModel(r)
	}
}

// addBoundaryCrossings adds delta to every adjacent-layer boundary crossed
// between layers a and b.
func (r *router) addBoundaryCrossings(a, b, delta int) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	for l := lo; l < hi; l++ {
		if l >= 0 && l < len(r.ill) {
			r.ill[l] += delta
		}
	}
}

// boundaryMax returns the maximum ill over the boundaries crossed between
// layers a and b (0 if none).
func (r *router) boundaryMax(a, b int) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	m := 0
	for l := lo; l < hi; l++ {
		if l >= 0 && l < len(r.ill) && r.ill[l] > m {
			m = r.ill[l]
		}
	}
	return m
}

// maxFlowCost estimates the largest possible "reasonable" arc cost; SOFT_INF
// is ten times this value, per the paper.
func (r *router) maxFlowCost() float64 {
	t := r.top
	// Longest possible wire: chip diagonal estimate from core bounding box.
	var maxX, maxY float64
	for _, c := range t.Design.Cores {
		if x := c.X + c.Width; x > maxX {
			maxX = x
		}
		if y := c.Y + c.Height; y > maxY {
			maxY = y
		}
	}
	maxDist := maxX + maxY
	maxBW := t.Design.MaxBandwidth()
	cost := r.cfg.PowerWeight*(t.Lib.WirePowerMW(maxDist, maxBW)+
		t.Lib.SwitchPowerMW(2, 2, t.FreqMHz, maxBW)) +
		r.cfg.LatencyWeight*10
	if cost <= 0 {
		cost = 1
	}
	return cost
}

// arcState is the mutable CHECK_CONSTRAINTS outcome of one arc: everything
// router.arcCost needs beyond the (immutable) arc geometry. The incremental
// cost model caches one arcState per arc and refreshes it only when a commit
// invalidates it.
type arcState struct {
	// forbidden marks arcs that violate a hard constraint (Infinity cost).
	forbidden bool
	// exists reports whether the physical link already carries traffic.
	exists bool
	// soft marks arcs inside a SOFT_INF threshold of Algorithm 3.
	soft bool
	// openJ and openI are the port-opening power marginals charged when the
	// link does not exist yet: a new input port on j and a new output port
	// on i.
	openJ, openI float64
}

// arcState evaluates the CHECK_CONSTRAINTS thresholds of Algorithm 3 for the
// arc (i, j) against the router's current bookkeeping.
func (r *router) arcState(i, j int) arcState {
	if i == j {
		return arcState{forbidden: true}
	}
	if r.allowed != nil && !r.allowed[i][j] {
		return arcState{forbidden: true}
	}
	t := r.top
	li, lj := t.Switches[i].Layer, t.Switches[j].Layer
	span := li - lj
	if span < 0 {
		span = -span
	}
	st := arcState{exists: r.exists[i][j]}

	if span > 0 {
		// Hard constraint: adjacency and max_ill.
		if r.cfg.AdjacentLayersOnly && span >= 2 {
			return arcState{forbidden: true}
		}
		if r.cfg.MaxILL > 0 && !st.exists {
			cur := r.boundaryMax(li, lj)
			if cur >= r.cfg.MaxILL {
				return arcState{forbidden: true}
			}
			if cur >= r.cfg.MaxILL-r.cfg.SoftILLMargin {
				st.soft = true
			}
		}
	}
	// Switch size constraints apply when a new link must be opened (a new
	// output port on i and a new input port on j).
	if !st.exists && r.cfg.MaxSwitchSize > 0 {
		if r.outPorts[i]+1 > r.cfg.MaxSwitchSize || r.inPorts[j]+1 > r.cfg.MaxSwitchSize {
			return arcState{forbidden: true}
		}
		if r.outPorts[i]+1 > r.cfg.MaxSwitchSize-r.cfg.SoftSwitchMargin ||
			r.inPorts[j]+1 > r.cfg.MaxSwitchSize-r.cfg.SoftSwitchMargin {
			st.soft = true
		}
	}
	if !st.exists {
		// Opening a link costs the extra ports on both switches: a new input
		// port on j and a new output port on i. The closed-form marginal
		// depends only on its own dimension's count, so a commit that grows
		// the other dimension of i or j cannot silently invalidate this arc.
		st.openJ = t.Lib.SwitchPortMarginalMW(r.inPorts[j], t.FreqMHz)
		st.openI = t.Lib.SwitchPortMarginalMW(r.outPorts[i], t.FreqMHz)
	}
	return st
}

// wireFactor returns the per-millimetre planar wire power at the given
// bandwidth (the parenthesised factor of noclib.WirePowerMW), hoisted out so
// the relaxation loop computes it once per flow.
func wireFactor(lib noclib.Library, bw float64) float64 {
	return lib.WirePowerMWPerMMPerGBps*bw/1000.0 + lib.WireLeakagePowerMWPerMM
}

// evalArc combines an arc's cached state and geometry into its routing cost
// for a flow of bandwidth bw. Both the full-rebuild reference (via arcCost)
// and the incremental cost model evaluate arcs through this one function, so
// the two agree bit for bit — equal-cost path ties resolve identically.
func (r *router) evalArc(st arcState, planar float64, span int, latency, wf, bw, softInf float64) float64 {
	if st.forbidden {
		return graph.Infinity
	}
	power := planar*wf + float64(span)*r.top.Lib.TSVPowerMWPerGBps*bw/1000.0
	if !st.exists {
		power += st.openJ
		power += st.openI
	}
	cost := r.cfg.PowerWeight*power + r.cfg.LatencyWeight*latency
	if st.soft {
		cost += softInf
	}
	return cost
}

// arcCost returns the cost of sending the flow (bandwidth bw) over a physical
// link from switch i to switch j, implementing the CHECK_CONSTRAINTS
// thresholds of Algorithm 3. It returns graph.Infinity for forbidden arcs.
func (r *router) arcCost(i, j int, bw float64, softInf float64) float64 {
	st := r.arcState(i, j)
	if st.forbidden {
		return graph.Infinity
	}
	t := r.top
	span := t.Switches[i].Layer - t.Switches[j].Layer
	if span < 0 {
		span = -span
	}
	planar := geom.Manhattan(t.Switches[i].Pos, t.Switches[j].Pos)
	latency := 1 + float64(t.Lib.LinkPipelineStages(planar, t.FreqMHz))
	return r.evalArc(st, planar, span, latency, wireFactor(t.Lib, bw), bw, softInf)
}

// buildCostGraph builds the per-flow routing graph over switches from scratch.
// forbidden lists arcs temporarily excluded by deadlock-avoidance retries.
// The equivalence tests use it as the ground truth the cached cost model is
// compared against; the Config.FullRebuild reference path itself rebuilds a
// fresh costModel per attempt so that both configurations search with the
// identical deterministic Dijkstra.
func (r *router) buildCostGraph(bw float64, forbidden [][2]int) *graph.Graph {
	n := r.top.NumSwitches()
	cg := graph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || listed(forbidden, i, j) {
				continue
			}
			c := r.arcCost(i, j, bw, r.softInf)
			if c < graph.Infinity {
				cg.SetEdge(i, j, c)
			}
		}
	}
	return cg
}

// routeFlow computes and commits a path for flow f. It returns false when no
// valid deadlock-free path exists.
func (r *router) routeFlow(f int) bool {
	t := r.top
	fl := t.Design.Flows[f]
	src := t.CoreAttach[fl.Src]
	dst := t.CoreAttach[fl.Dst]
	if src == dst {
		t.SetRoute(f, []int{src})
		return true
	}

	// Arcs excluded by deadlock retries: at most MaxDeadlockRetries entries,
	// so a linear scan beats any set structure.
	var forbidden [][2]int
	for try := 0; try <= r.cfg.MaxDeadlockRetries; try++ {
		var path []int
		var cost float64
		if r.cost != nil {
			path, cost = r.cost.shortestPath(src, dst, fl.BandwidthMBps, forbidden)
		} else {
			// Reference: recompute every arc state from scratch for this
			// attempt (the full O(S^2) pass of the original CHECK_CONSTRAINTS
			// loop), then search with the same deterministic dense Dijkstra
			// as the incremental model — a different shortest-path
			// implementation could break ties between exactly equal-cost
			// paths differently and commit different (equally optimal)
			// routes, and the two configurations must stay byte-identical.
			path, cost = newCostModel(r).shortestPath(src, dst, fl.BandwidthMBps, forbidden)
		}
		if path == nil || cost >= graph.Infinity {
			return false
		}
		if bad := r.deadlockArc(path); bad != nil {
			// Penalise the arc that closed a cycle and retry.
			forbidden = append(forbidden, *bad)
			r.deadlock++
			continue
		}
		r.commit(f, path)
		return true
	}
	return false
}

// deadlockArc tentatively adds the path's channel dependencies to the CDG and
// returns an arc of the path to forbid if a cycle would be created (nil if
// the path is safe). The tentative edges are removed before returning when a
// cycle is found.
func (r *router) deadlockArc(path []int) *[2]int {
	if len(path) < 3 {
		return nil // a single link cannot create a new dependency
	}
	type added struct {
		from, to int
	}
	var newEdges []added
	for i := 2; i < len(path); i++ {
		a := r.ensureLinkVertex(path[i-2], path[i-1])
		b := r.ensureLinkVertex(path[i-1], path[i])
		if !r.cdg.HasEdge(a, b) {
			r.cdg.AddEdge(a, b, 1)
			newEdges = append(newEdges, added{a, b})
		}
	}
	if !r.cdg.HasCycle() {
		return nil
	}
	for _, e := range newEdges {
		r.cdg.RemoveEdge(e.from, e.to)
	}
	// Forbid the middle arc of the path; re-routing around it usually breaks
	// the cycle while keeping source and destination reachable.
	mid := len(path) / 2
	arc := [2]int{path[mid-1], path[mid]}
	return &arc
}

// ensureLinkVertex returns the CDG vertex of the directed link (i, j),
// growing the CDG if the link is new.
func (r *router) ensureLinkVertex(i, j int) int {
	if v := r.linkIdx[i][j]; v >= 0 {
		return int(v)
	}
	v := r.cdg.Grow(1)
	r.linkIdx[i][j] = int32(v)
	return v
}

// commit records the route and updates link, port and inter-layer-link
// bookkeeping, then refreshes the cost-graph arcs those updates invalidated.
func (r *router) commit(f int, path []int) {
	t := r.top
	var opened [][2]int
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if !r.exists[a][b] {
			r.exists[a][b] = true
			r.outPorts[a]++
			r.inPorts[b]++
			r.addBoundaryCrossings(t.Switches[a].Layer, t.Switches[b].Layer, 1)
			opened = append(opened, [2]int{a, b})
		}
	}
	t.SetRoute(f, path)
	if r.cost != nil && len(opened) > 0 {
		r.cost.applyCommit(opened)
	}
}

// tryWithIndirectSwitch adds an indirect switch between the source and
// destination switches of the failed flow and retries the routing once. This
// mirrors the paper's insertion of indirect switches when the
// max_switch_size constraint cannot be met directly. It returns whether the
// flow was routed and whether the inserted switch was kept: the insertion is
// rolled back — restoring the topology (switch list, port counts, power and
// area) to exactly its pre-attempt state — both when the retry still fails
// and when the retry happens to commit a path that never traverses the new
// switch (a fresh deadlock-retry sequence can succeed on existing switches
// alone; keeping the unused switch would pollute the point's metrics).
func (r *router) tryWithIndirectSwitch(f int) (routed, kept bool) {
	t := r.top
	fl := t.Design.Flows[f]
	src := t.CoreAttach[fl.Src]
	dst := t.CoreAttach[fl.Dst]
	if src == dst {
		return false, false
	}
	// Place the new switch between the two endpoints, on an intermediate
	// layer when the endpoints are on different layers.
	ls, ld := t.Switches[src].Layer, t.Switches[dst].Layer
	id := r.addSwitch((ls+ld)/2, geom.Point{
		X: (t.Switches[src].Pos.X + t.Switches[dst].Pos.X) / 2,
		Y: (t.Switches[src].Pos.Y + t.Switches[dst].Pos.Y) / 2,
	})
	routed = r.routeFlow(f)
	if routed {
		for _, s := range t.Routes[f].Switches {
			if s == id {
				return true, true
			}
		}
		// Routed without the new switch: no committed link touches it, so
		// the insertion can be undone like a failed retry.
	}
	// Undoing the insertion restores the pre-attempt state: nothing involving
	// the switch was committed.
	r.removeLastSwitch()
	return routed, false
}

// addSwitch appends an indirect switch on the given layer at pos to the
// topology and grows every per-switch table of the router with it.
func (r *router) addSwitch(layer int, pos geom.Point) int {
	id := r.top.AddIndirectSwitch(layer)
	r.top.Switches[id].Pos = pos
	r.inPorts = append(r.inPorts, 0)
	r.outPorts = append(r.outPorts, 0)
	r.exists = growSquare(r.exists, false)
	r.linkIdx = growSquare(r.linkIdx, -1)
	if r.allowed != nil {
		r.allowed = growSquare(r.allowed, false)
	}
	if r.cost != nil {
		r.cost.grow()
	}
	return id
}

// removeLastSwitch undoes addSwitch for a switch no committed route uses.
// CDG vertices created for candidate links through the removed switch keep
// their (edge-free) slots, but shrinking linkIdx drops their entries, so a
// future switch reusing this ID starts from a clean link identity
// (growSquare re-fills its row and column).
func (r *router) removeLastSwitch() {
	id := r.top.NumSwitches() - 1
	r.top.Switches = r.top.Switches[:id]
	r.inPorts = r.inPorts[:id]
	r.outPorts = r.outPorts[:id]
	r.exists = shrinkSquare(r.exists)
	r.linkIdx = shrinkSquare(r.linkIdx)
	if r.allowed != nil {
		r.allowed = shrinkSquare(r.allowed)
	}
	if r.cost != nil {
		r.cost.shrink()
	}
}

// listed reports whether the arc (i, j) is in the short arc list.
func listed(arcs [][2]int, i, j int) bool {
	for _, a := range arcs {
		if a[0] == i && a[1] == j {
			return true
		}
	}
	return false
}

// leavesListed reports whether some arc of the short arc list leaves i.
func leavesListed(arcs [][2]int, i int) bool {
	for _, a := range arcs {
		if a[0] == i {
			return true
		}
	}
	return false
}

// newSquare returns an n×n table with every cell set to fill. The router's
// per-link tables are indexed by switch ID and resized with the switch count.
func newSquare[T any](n int, fill T) [][]T {
	m := make([][]T, n)
	for i := range m {
		m[i] = make([]T, n)
		for j := range m[i] {
			m[i][j] = fill
		}
	}
	return m
}

// growSquare extends an n×n table to (n+1)×(n+1), filling the new row and
// column. Cells left over in spare capacity by an earlier shrinkSquare are
// overwritten, never read.
func growSquare[T any](m [][]T, fill T) [][]T {
	n := len(m)
	for i := range m {
		m[i] = append(m[i], fill)
	}
	row := make([]T, n+1)
	for j := range row {
		row[j] = fill
	}
	return append(m, row)
}

// shrinkSquare drops the last row and column of a square table.
func shrinkSquare[T any](m [][]T) [][]T {
	n := len(m) - 1
	m = m[:n]
	for i := range m {
		m[i] = m[i][:n]
	}
	return m
}
