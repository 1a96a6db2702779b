package route_test

// Fuzz harness for the path-computation step: randomized communication
// graphs and switch assignments must never panic the router, the committed
// paths must validate and stay deadlock free (acyclic CDG), and the
// incrementally maintained cost graph must return byte-identical results to
// the full-rebuild reference implementation. A run that stops at the first
// unroutable flow must agree with the full run up to that flow.

import (
	"reflect"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/topology"
)

// fuzzReader doles out bytes from the fuzz input, falling back to a rolling
// default when the input is exhausted so every prefix decodes to a valid
// scenario.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		r.pos++
		return byte(r.pos * 37)
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// intn returns a value in [1, n] derived from the next byte.
func (r *fuzzReader) intn(n int) int { return 1 + int(r.byte())%n }

// buildScenario decodes the fuzz input into a routed-topology scenario: a
// communication graph, a switch set with layers and positions, and core
// attachments. It returns nil when the decoded design is degenerate.
func buildScenario(data []byte) (*model.CommGraph, func() *topology.Topology) {
	r := &fuzzReader{data: data}
	nCores := 2 + int(r.byte())%9    // 2..10
	nLayers := 1 + int(r.byte())%3   // 1..3
	nSwitches := 1 + int(r.byte())%6 // 1..6
	nFlows := 1 + int(r.byte())%16   // 1..16

	cores := make([]model.Core, nCores)
	for i := range cores {
		cores[i] = model.Core{
			Name:   "c" + string(rune('a'+i)),
			Width:  0.5 + float64(r.intn(8))/4,
			Height: 0.5 + float64(r.intn(8))/4,
			X:      float64(r.intn(12)),
			Y:      float64(r.intn(12)),
			Layer:  int(r.byte()) % nLayers,
		}
	}
	var flows []model.Flow
	for i := 0; i < nFlows; i++ {
		src := int(r.byte()) % nCores
		dst := int(r.byte()) % nCores
		if src == dst {
			continue
		}
		flows = append(flows, model.Flow{
			Src: src, Dst: dst,
			BandwidthMBps: float64(25 * r.intn(80)),
			LatencyCycles: float64(int(r.byte()) % 12), // 0 = unconstrained
		})
	}
	if len(flows) == 0 {
		return nil, nil
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		return nil, nil
	}

	swLayer := make([]int, nSwitches)
	swX := make([]float64, nSwitches)
	swY := make([]float64, nSwitches)
	for s := 0; s < nSwitches; s++ {
		swLayer[s] = int(r.byte()) % nLayers
		swX[s] = float64(r.intn(12))
		swY[s] = float64(r.intn(12))
	}
	attach := make([]int, nCores)
	for c := range attach {
		attach[c] = int(r.byte()) % nSwitches
	}

	build := func() *topology.Topology {
		top := topology.New(g, noclib.DefaultLibrary(), 400)
		for s := 0; s < nSwitches; s++ {
			id := top.AddSwitch(swLayer[s])
			top.Switches[id].Pos.X = swX[s]
			top.Switches[id].Pos.Y = swY[s]
		}
		for c, s := range attach {
			top.AttachCore(c, s)
		}
		return top
	}
	return g, build
}

// routesEqual compares the committed routes of two topologies.
func routesEqual(a, b *topology.Topology) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for f := range a.Routes {
		ra, rb := a.Routes[f].Switches, b.Routes[f].Switches
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

func FuzzComputePaths(f *testing.F) {
	// Seed corpus: hand-picked shapes covering single-switch, multi-layer,
	// constrained and dense scenarios.
	f.Add([]byte{})
	f.Add([]byte{4, 2, 3, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{9, 3, 5, 15, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 1, 1, 1, 0, 1, 10, 0})
	f.Add([]byte{10, 3, 6, 16, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	// Flows 3, 4 and 10 fail; in routing order flow 10 fails first, after
	// five routed flows, so the fail-fast arm checks a stop that is neither
	// the first routed flow nor the lowest failed flow index.
	f.Add([]byte{0x94, 0x3e, 0x64, 0x4a, 0x5b, 0x55, 0xf4})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, build := buildScenario(data)
		if g == nil {
			return
		}
		cfg := route.DefaultConfig()
		// Derive mild constraints from the input so both constrained and
		// unconstrained paths are explored.
		if len(data) > 0 {
			cfg.MaxILL = int(data[0]) % 8 // 0 = unconstrained
			cfg.MaxSwitchSize = int(data[len(data)-1]) % 10
			if cfg.MaxSwitchSize > 0 && cfg.MaxSwitchSize < 2 {
				cfg.MaxSwitchSize = 2
			}
		}

		// Incremental cost graph (production) vs full rebuild (reference):
		// both must route identically from identical starting topologies.
		incTop := build()
		incCfg := cfg
		incRes, incErr := route.ComputePaths(incTop, incCfg)

		refTop := build()
		refCfg := cfg
		refCfg.FullRebuild = true
		refRes, refErr := route.ComputePaths(refTop, refCfg)

		if (incErr == nil) != (refErr == nil) {
			t.Fatalf("error divergence: incremental %v, reference %v", incErr, refErr)
		}
		if incErr != nil {
			return
		}
		if incRes.Routed != refRes.Routed || len(incRes.Failed) != len(refRes.Failed) ||
			incRes.IndirectSwitches != refRes.IndirectSwitches ||
			incRes.DeadlockRetries != refRes.DeadlockRetries {
			t.Fatalf("result divergence:\nincremental %+v\nreference   %+v", incRes, refRes)
		}
		if incTop.NumSwitches() != refTop.NumSwitches() {
			t.Fatalf("switch count divergence: %d vs %d", incTop.NumSwitches(), refTop.NumSwitches())
		}
		if !routesEqual(incTop, refTop) {
			t.Fatal("committed routes diverge between incremental and full-rebuild router")
		}

		// Committed paths of a fully routed topology must validate and be
		// deadlock free.
		if incRes.Success() {
			if err := incTop.Validate(); err != nil {
				t.Fatalf("routed topology does not validate: %v", err)
			}
			if !route.DeadlockFree(incTop) {
				t.Fatal("committed paths have a cyclic channel dependency graph")
			}
		}

		checkStopAtFirstFailure(t, g, build, cfg, incRes, incTop)

		// CommittedPaths must mirror the routes without aliasing.
		paths := route.CommittedPaths(incTop)
		for fl, p := range paths {
			if len(p) != len(incTop.Routes[fl].Switches) {
				t.Fatalf("flow %d: exported path length %d != route length %d",
					fl, len(p), len(incTop.Routes[fl].Switches))
			}
		}
	})
}

// checkStopAtFirstFailure routes the scenario again with StopAtFirstFailure
// and compares it with the full run: the same success verdict; on success
// the same result and routes; on failure exactly one reported flow, the
// first flow in routing order that the full run failed, with the routes
// committed before it identical to the full run's.
func checkStopAtFirstFailure(t *testing.T, g *model.CommGraph, build func() *topology.Topology, cfg route.Config, full route.Result, fullTop *topology.Topology) {
	t.Helper()
	top := build()
	cfg.StopAtFirstFailure = true
	res, err := route.ComputePaths(top, cfg)
	if err != nil {
		t.Fatalf("fail-fast run errs where the full run does not: %v", err)
	}
	if res.Success() != full.Success() {
		t.Fatalf("fail-fast success %v, full run %v", res.Success(), full.Success())
	}
	if res.Success() {
		if res.Routed != full.Routed || res.IndirectSwitches != full.IndirectSwitches ||
			res.DeadlockRetries != full.DeadlockRetries || !routesEqual(top, fullTop) {
			t.Fatalf("successful fail-fast run diverges:\nfail-fast %+v\nfull      %+v", res, full)
		}
		return
	}
	if len(res.Failed) != 1 {
		t.Fatalf("fail-fast run reports %d failed flows %v, want 1", len(res.Failed), res.Failed)
	}
	order := g.FlowsByBandwidth()
	first := -1
	for i, f := range order {
		for _, ff := range full.Failed {
			if f == ff {
				first = i
				break
			}
		}
		if first >= 0 {
			break
		}
	}
	if res.Failed[0] != order[first] {
		t.Fatalf("fail-fast run stopped at flow %d, the full run first failed flow %d", res.Failed[0], order[first])
	}
	if res.Routed != first {
		t.Fatalf("fail-fast run routed %d flows before stopping, want %d", res.Routed, first)
	}
	for _, f := range order[:first] {
		a, b := top.Routes[f].Switches, fullTop.Routes[f].Switches
		if len(a) != len(b) {
			t.Fatalf("flow %d: fail-fast route %v, full route %v", f, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("flow %d: fail-fast route %v, full route %v", f, a, b)
			}
		}
	}
}

// TestStopAtFirstFailureAfterIndirectSwitch covers a case the fuzz scenarios
// never reach: a flow rescued by an indirect switch before the first
// unroutable flow. With adjacent-layer links only, flow 0 (layer 0 to 2)
// needs an indirect switch on layer 1, and flow 1 (layer 0 to 5) cannot be
// routed because no switch sits on layer 3 or 4.
func TestStopAtFirstFailureAfterIndirectSwitch(t *testing.T) {
	cores := []model.Core{
		{Name: "a", Width: 1, Height: 1, Layer: 0},
		{Name: "b", Width: 1, Height: 1, X: 2, Layer: 2},
		{Name: "c", Width: 1, Height: 1, X: 4, Layer: 5},
	}
	flows := []model.Flow{{Src: 0, Dst: 1, BandwidthMBps: 300}, {Src: 0, Dst: 2, BandwidthMBps: 100}}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *topology.Topology {
		top := topology.New(g, noclib.DefaultLibrary(), 400)
		for c, core := range cores {
			top.AttachCore(c, top.AddSwitch(core.Layer))
		}
		top.EstimateSwitchPositions()
		return top
	}
	cfg := route.DefaultConfig()
	cfg.AdjacentLayersOnly = true
	fullTop := build()
	full, err := route.ComputePaths(fullTop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.IndirectSwitches != 1 || !reflect.DeepEqual(full.Failed, []int{1}) {
		t.Fatalf("full run %+v, want one indirect switch and flow 1 failed", full)
	}
	checkStopAtFirstFailure(t, g, build, cfg, full, fullTop)
}
