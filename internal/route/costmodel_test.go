package route

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// TestIndirectSwitchRollbackOnFailure checks that a failed indirect-switch
// retry leaves the topology byte-identical to its pre-attempt state: no
// leftover switch, no phantom port slots polluting power and area.
func TestIndirectSwitchRollbackOnFailure(t *testing.T) {
	// Cores three layers apart with adjacent-layer-only links: the indirect
	// switch lands on layer 1, but its link to layer 3 still spans two
	// layers, so the retry must fail and roll back.
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, Layer: 0},
		{Name: "c3", Width: 1, Height: 1, Layer: 3},
	}
	flows := []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 100}}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, fullRebuild := range []bool{false, true} {
		top := topology.New(g, noclib.DefaultLibrary(), 400)
		s0 := top.AddSwitch(0)
		s3 := top.AddSwitch(3)
		top.AttachCore(0, s0)
		top.AttachCore(1, s3)
		top.EstimateSwitchPositions()
		snapshot := top.Clone()

		cfg := DefaultConfig()
		cfg.AdjacentLayersOnly = true
		cfg.AllowIndirectSwitches = true
		cfg.FullRebuild = fullRebuild
		res, err := ComputePaths(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Success() {
			t.Fatalf("fullRebuild=%v: routing across a 3-layer gap should fail", fullRebuild)
		}
		if res.IndirectSwitches != 0 {
			t.Errorf("fullRebuild=%v: failed insertion counted %d indirect switches", fullRebuild, res.IndirectSwitches)
		}
		if !reflect.DeepEqual(top.Switches, snapshot.Switches) {
			t.Errorf("fullRebuild=%v: switches not rolled back:\ngot  %+v\nwant %+v",
				fullRebuild, top.Switches, snapshot.Switches)
		}
		if !reflect.DeepEqual(top.CoreAttach, snapshot.CoreAttach) {
			t.Errorf("fullRebuild=%v: core attachments changed", fullRebuild)
		}
		in, out := top.SwitchPorts()
		wantIn, wantOut := snapshot.SwitchPorts()
		if !reflect.DeepEqual(in, wantIn) || !reflect.DeepEqual(out, wantOut) {
			t.Errorf("fullRebuild=%v: port counts changed: %v/%v want %v/%v",
				fullRebuild, in, out, wantIn, wantOut)
		}
	}
}

// TestIndirectSwitchRollbackThenReuse checks that after a rolled-back
// insertion the router can still insert an indirect switch for a later flow
// with a clean link identity (the rolled-back switch ID is reused).
func TestIndirectSwitchRollbackThenReuse(t *testing.T) {
	cores := []model.Core{
		{Name: "a0", Width: 1, Height: 1, Layer: 0},
		{Name: "a4", Width: 1, Height: 1, Layer: 4},
		{Name: "b0", Width: 1, Height: 1, X: 2, Layer: 0},
		{Name: "b2", Width: 1, Height: 1, X: 2, Layer: 2},
	}
	flows := []model.Flow{
		// Unroutable: a 4-layer gap that a single indirect switch (placed on
		// layer 2) cannot bridge with adjacent-layer-only links.
		{Src: 0, Dst: 1, BandwidthMBps: 900},
		// Rescued by an indirect switch on layer 1.
		{Src: 2, Dst: 3, BandwidthMBps: 100},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *topology.Topology {
		top := topology.New(g, noclib.DefaultLibrary(), 400)
		top.AttachCore(0, top.AddSwitch(0))
		top.AttachCore(1, top.AddSwitch(4))
		top.AttachCore(2, top.AddSwitch(0))
		top.AttachCore(3, top.AddSwitch(2))
		top.EstimateSwitchPositions()
		return top
	}
	top := build()

	cfg := DefaultConfig()
	cfg.AdjacentLayersOnly = true
	cfg.AllowIndirectSwitches = true
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", res.Failed)
	}
	if res.IndirectSwitches != 1 {
		t.Errorf("IndirectSwitches = %d, want 1", res.IndirectSwitches)
	}
	if top.NumSwitches() != 5 {
		t.Errorf("switch count = %d, want 5 (4 + 1 surviving indirect)", top.NumSwitches())
	}

	// Replay the same run step by step to inspect the router's per-link
	// tables across the rollback.
	top = build()
	r := &router{top: top, cfg: cfg}
	r.init()
	if r.routeFlow(0) {
		t.Fatal("flow 0 routed without an indirect switch")
	}
	if routed, kept := r.tryWithIndirectSwitch(0); routed || kept {
		t.Fatalf("flow 0 indirect retry = (%v, %v), want a rollback", routed, kept)
	}
	assertSquareTables(t, r)

	// Plant link vertices through a fresh insertion, roll it back, and
	// insert again: the reused ID must come back with no link identity.
	id := r.addSwitch(1, top.Switches[2].Pos)
	r.ensureLinkVertex(2, id)
	r.ensureLinkVertex(id, 3)
	r.removeLastSwitch()
	assertSquareTables(t, r)
	if again := r.addSwitch(1, top.Switches[2].Pos); again != id {
		t.Fatalf("re-inserted switch got ID %d, want reused %d", again, id)
	}
	assertSquareTables(t, r)
	for s := 0; s < top.NumSwitches(); s++ {
		if r.linkIdx[s][id] >= 0 || r.linkIdx[id][s] >= 0 || r.exists[s][id] || r.exists[id][s] {
			t.Fatalf("reused switch %d inherits stale link state with switch %d", id, s)
		}
	}
	r.removeLastSwitch()

	// The real rescue of flow 1 reuses the ID too; every link entry of the
	// reused switch then belongs to the committed route.
	if routed, kept := r.tryWithIndirectSwitch(1); !routed || !kept {
		t.Fatalf("flow 1 indirect retry = (%v, %v), want routed and kept", routed, kept)
	}
	assertSquareTables(t, r)
	onRoute := make(map[[2]int]bool)
	path := top.Routes[1].Switches
	for i := 1; i < len(path); i++ {
		onRoute[[2]int{path[i-1], path[i]}] = true
	}
	for s := 0; s < top.NumSwitches(); s++ {
		for _, l := range [][2]int{{s, id}, {id, s}} {
			if (r.linkIdx[l[0]][l[1]] >= 0 || r.exists[l[0]][l[1]]) && !onRoute[l] {
				t.Errorf("link %d->%d of the reused switch has state but is not on route %v", l[0], l[1], path)
			}
		}
	}
}

// assertSquareTables checks that the router's per-link tables match the
// topology's switch count exactly.
func assertSquareTables(t *testing.T, r *router) {
	t.Helper()
	n := r.top.NumSwitches()
	if len(r.exists) != n || len(r.linkIdx) != n {
		t.Fatalf("tables have %d/%d rows for %d switches", len(r.exists), len(r.linkIdx), n)
	}
	for i := 0; i < n; i++ {
		if len(r.exists[i]) != n || len(r.linkIdx[i]) != n {
			t.Fatalf("row %d has %d/%d columns for %d switches", i, len(r.exists[i]), len(r.linkIdx[i]), n)
		}
	}
}

// randomRoutedCase builds a random multi-layer design and switch assignment
// for the equivalence test.
func randomRoutedCase(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	layers := 1 + rng.Intn(3)
	perLayer := 2 + rng.Intn(3)
	var cores []model.Core
	for l := 0; l < layers; l++ {
		for i := 0; i < perLayer; i++ {
			cores = append(cores, model.Core{
				Name:  coreName(l, i),
				Width: 1, Height: 1,
				X: rng.Float64() * 6, Y: rng.Float64() * 6, Layer: l,
			})
		}
	}
	n := len(cores)
	var flows []model.Flow
	for f := 0; f < n+rng.Intn(2*n); f++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			continue
		}
		flows = append(flows, model.Flow{
			Src: src, Dst: dst, BandwidthMBps: 50 + rng.Float64()*900,
		})
	}
	if len(flows) == 0 {
		flows = append(flows, model.Flow{Src: 0, Dst: 1, BandwidthMBps: 100})
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400+float64(rng.Intn(3))*200)
	swPerLayer := 1 + rng.Intn(3)
	var sw [][]int
	for l := 0; l < layers; l++ {
		var row []int
		for s := 0; s < swPerLayer; s++ {
			id := top.AddSwitch(l)
			row = append(row, id)
		}
		sw = append(sw, row)
	}
	for c := range cores {
		top.AttachCore(c, sw[cores[c].Layer][rng.Intn(swPerLayer)])
	}
	top.EstimateSwitchPositions()
	return top
}

// TestCostModelMatchesRebuild routes randomized topologies with the
// incremental cost model and, between every commit, cross-checks each cached
// arc against a from-scratch arcCost evaluation (what the FullRebuild
// reference graph would contain). This pins the incremental invalidation
// logic to the ground truth of Algorithm 3's CHECK_CONSTRAINTS.
func TestCostModelMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		top := randomRoutedCase(t, rng)
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.MaxILL = 2 + rng.Intn(8)
		}
		if rng.Intn(2) == 0 {
			cfg.MaxSwitchSize = 4 + rng.Intn(6)
		}
		cfg.AdjacentLayersOnly = rng.Intn(2) == 0

		r := &router{top: top, cfg: cfg}
		r.init()
		if r.cost == nil {
			t.Fatal("incremental cost model not built")
		}
		sampleBWs := []float64{0, 120, 975.5}
		verify := func(stage string) {
			n := top.NumSwitches()
			cg := r.buildCostGraph(sampleBWs[1], nil)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					for _, bw := range sampleBWs {
						want := r.arcCost(i, j, bw, r.softInf)
						got := r.cost.cost(i, j, bw)
						if !costsClose(got, want) {
							t.Fatalf("trial %d, %s: arc (%d,%d) bw=%v: incremental %v, rebuilt %v",
								trial, stage, i, j, bw, got, want)
						}
					}
					// The reference graph must agree too (missing edge = Infinity).
					want := r.arcCost(i, j, sampleBWs[1], r.softInf)
					got := graph.Infinity
					if cg.HasEdge(i, j) {
						got = cg.Weight(i, j)
					}
					if !costsClose(got, want) {
						t.Fatalf("trial %d, %s: reference graph arc (%d,%d): %v want %v",
							trial, stage, i, j, got, want)
					}
				}
			}
		}
		verify("init")
		before := top.NumSwitches()
		for _, f := range top.Design.FlowsByBandwidth() {
			if !r.routeFlow(f) && cfg.AllowIndirectSwitches {
				r.tryWithIndirectSwitch(f)
			}
			verify("after flow")
		}
		// Every switch the router kept must actually carry a route: unused
		// insertions are rolled back on both the failure and success paths.
		used := make(map[int]bool)
		for _, rt := range top.Routes {
			for _, s := range rt.Switches {
				used[s] = true
			}
		}
		for id := before; id < top.NumSwitches(); id++ {
			if !used[id] {
				t.Fatalf("trial %d: inserted switch %d survives with no route through it", trial, id)
			}
		}
	}
}

// costsClose compares arc costs with a relative tolerance (the incremental
// model's state+slope*bw split rounds differently from the monolithic
// arcCost evaluation).
func costsClose(a, b float64) bool {
	if a >= graph.Infinity || b >= graph.Infinity {
		return a >= graph.Infinity && b >= graph.Infinity
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// TestIncrementalRoutingStaysDeadlockFree re-runs the deadlock test pattern
// through the incremental path with tight constraints and verifies the final
// routes still form an acyclic channel dependency graph.
func TestIncrementalRoutingStaysDeadlockFree(t *testing.T) {
	g := buildDesign(t, 2, 8)
	top := buildTopology(t, g, 2)
	cfg := DefaultConfig()
	cfg.MaxILL = 10
	res, err := ComputePaths(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("failed: %v", res.Failed)
	}
	assertAcyclicCDG(t, top)
}
