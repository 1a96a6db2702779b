package route

import (
	"reflect"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// triangleTopology builds a 3-core, 3-switch single-layer topology with
// committed routes forming a triangle of fabricated links:
//
//	flow 0: c0 -> c1, route s0 -> s1
//	flow 1: c0 -> c2, route s0 -> s2
//	flow 2: c2 -> c1, route s2 -> s1
//
// Killing s0->s1 leaves the detour s0 -> s2 -> s1 over fabricated links;
// killing s0->s2 or s2->s1 is unrepairable.
func triangleTopology(t *testing.T) *topology.Topology {
	t.Helper()
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, X: 0, Y: 0, Layer: 0},
		{Name: "c1", Width: 1, Height: 1, X: 2, Y: 0, Layer: 0},
		{Name: "c2", Width: 1, Height: 1, X: 1, Y: 2, Layer: 0},
	}
	flows := []model.Flow{
		{Src: 0, Dst: 1, BandwidthMBps: 300, LatencyCycles: 0},
		{Src: 0, Dst: 2, BandwidthMBps: 200, LatencyCycles: 0},
		{Src: 2, Dst: 1, BandwidthMBps: 100, LatencyCycles: 0},
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	s0 := top.AddSwitch(0)
	s1 := top.AddSwitch(0)
	s2 := top.AddSwitch(0)
	top.AttachCore(0, s0)
	top.AttachCore(1, s1)
	top.AttachCore(2, s2)
	top.EstimateSwitchPositions()
	top.SetRoute(0, []int{s0, s1})
	top.SetRoute(1, []int{s0, s2})
	top.SetRoute(2, []int{s2, s1})
	if err := top.Validate(); err != nil {
		t.Fatalf("triangle topology invalid: %v", err)
	}
	return top
}

func TestRepairRoutesReroutesOverSurvivingLinks(t *testing.T) {
	top := triangleTopology(t)
	res, err := RepairRoutes(top, DefaultConfig(), [][2]int{{0, 1}})
	if err != nil {
		t.Fatalf("RepairRoutes: %v", err)
	}
	if want := []int{0}; !reflect.DeepEqual(res.Stranded, want) {
		t.Errorf("Stranded = %v, want %v", res.Stranded, want)
	}
	if res.Rerouted != 1 || len(res.Unroutable) != 0 {
		t.Fatalf("Rerouted = %d, Unroutable = %v, want 1 rerouted and none unroutable", res.Rerouted, res.Unroutable)
	}
	if want := []int{0, 2, 1}; !reflect.DeepEqual(top.Routes[0].Switches, want) {
		t.Errorf("repaired route = %v, want the detour %v", top.Routes[0].Switches, want)
	}
	// The surviving routes are untouched.
	if !reflect.DeepEqual(top.Routes[1].Switches, []int{0, 2}) || !reflect.DeepEqual(top.Routes[2].Switches, []int{2, 1}) {
		t.Errorf("surviving routes changed: %v, %v", top.Routes[1].Switches, top.Routes[2].Switches)
	}
	// The repaired route set avoids the dead link and stays sound.
	for f, rt := range top.Routes {
		for i := 1; i < len(rt.Switches); i++ {
			if rt.Switches[i-1] == 0 && rt.Switches[i] == 1 {
				t.Errorf("flow %d still crosses the dead link", f)
			}
		}
	}
	if err := top.Validate(); err != nil {
		t.Errorf("topology invalid after repair: %v", err)
	}
	if !DeadlockFree(top) {
		t.Error("repaired routes are not deadlock-free")
	}
}

func TestRepairRoutesCertifiesDeadPlans(t *testing.T) {
	top := triangleTopology(t)
	// s2->s1 is flow 2's only possible path: s2 has no other outgoing link.
	res, err := RepairRoutes(top, DefaultConfig(), [][2]int{{2, 1}})
	if err != nil {
		t.Fatalf("RepairRoutes: %v", err)
	}
	if want := []int{2}; !reflect.DeepEqual(res.Unroutable, want) {
		t.Fatalf("Unroutable = %v, want %v", res.Unroutable, want)
	}
	if res.Rerouted != 0 {
		t.Errorf("Rerouted = %d, want 0", res.Rerouted)
	}
	// The unroutable flow keeps an empty route, so validation fails — that is
	// the certified-dead signal.
	if len(top.Routes[2].Switches) != 0 {
		t.Errorf("unroutable flow kept route %v", top.Routes[2].Switches)
	}
	if err := top.Validate(); err == nil {
		t.Error("certified-dead topology still validates")
	}
}

// TestRepairRoutesIgnoresStopAtFirstFailure checks that a repair reports
// every unroutable flow even when handed a config that asks ComputePaths to
// stop at the first one.
func TestRepairRoutesIgnoresStopAtFirstFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StopAtFirstFailure = true
	// Killing s0->s2 and s2->s1 strands flows 1 and 2 with no detour.
	res, err := RepairRoutes(triangleTopology(t), cfg, [][2]int{{0, 2}, {2, 1}})
	if err != nil {
		t.Fatalf("RepairRoutes: %v", err)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(res.Unroutable, want) {
		t.Fatalf("Unroutable = %v, want %v", res.Unroutable, want)
	}
}

func TestRepairRoutesRejectsUnknownDeadLink(t *testing.T) {
	top := triangleTopology(t)
	// s1->s2 exists only in the reverse direction; it was never fabricated.
	// The others name switches the topology does not have.
	for _, d := range [][2]int{{1, 2}, {-1, 0}, {0, 3}, {7, 9}} {
		if _, err := RepairRoutes(top, DefaultConfig(), [][2]int{d}); err == nil {
			t.Errorf("unfabricated dead link %v accepted", d)
		}
	}
}

// TestRepairOverlayAdmitsOnlySurvivingLinks checks the repair router's
// allowed overlay on a synthesized topology: it admits exactly the
// fabricated links minus the dead ones, so neither a dead link nor a link
// the chip never built is usable, and the repaired routes keep to it.
func TestRepairOverlayAdmitsOnlySurvivingLinks(t *testing.T) {
	g := buildDesign(t, 2, 8)
	top := buildTopology(t, g, 2)
	if res, err := ComputePaths(top, DefaultConfig()); err != nil || !res.Success() {
		t.Fatalf("ComputePaths: %v (failed %v)", err, res.Failed)
	}
	n := top.NumSwitches()
	fabricated := make(map[[2]int]bool)
	for _, rt := range top.Routes {
		for i := 1; i < len(rt.Switches); i++ {
			fabricated[[2]int{rt.Switches[i-1], rt.Switches[i]}] = true
		}
	}
	links := top.SwitchLinks()
	if len(links) == 0 {
		t.Skip("routed topology has no inter-switch link")
	}
	// Kill the first link twice over (a duplicate is not an error) and the
	// last one.
	first, last := links[0], links[len(links)-1]
	dead := [][2]int{{first.From, first.To}, {first.From, first.To}, {last.From, last.To}}
	isDead := map[[2]int]bool{dead[0]: true, dead[2]: true}

	allowed, deadSet, err := repairOverlay(top, dead)
	if err != nil {
		t.Fatal(err)
	}
	// init resets the routes, so the probe router works on a copy.
	r := &router{top: top.Clone(), cfg: DefaultConfig(), allowed: allowed}
	r.init()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			l := [2]int{i, j}
			want := fabricated[l] && !isDead[l]
			if allowed[i][j] != want {
				t.Errorf("allowed[%d][%d] = %v, want %v (fabricated %v, dead %v)",
					i, j, allowed[i][j], want, fabricated[l], isDead[l])
			}
			if deadSet[i][j] != isDead[l] {
				t.Errorf("deadSet[%d][%d] = %v, want %v", i, j, deadSet[i][j], isDead[l])
			}
			if !want && !r.arcState(i, j).forbidden {
				t.Errorf("arc %d->%d is usable in repair mode but is dead or unbuilt", i, j)
			}
		}
	}

	if _, err := RepairRoutes(top, DefaultConfig(), dead); err != nil {
		t.Fatal(err)
	}
	for f, rt := range top.Routes {
		for i := 1; i < len(rt.Switches); i++ {
			l := [2]int{rt.Switches[i-1], rt.Switches[i]}
			if !fabricated[l] || isDead[l] {
				t.Errorf("flow %d repaired over link %v that is dead or was never built", f, l)
			}
		}
	}
}

func TestRepairRoutesEmptyDeadSetIsNoOp(t *testing.T) {
	top := triangleTopology(t)
	before := [][]int{
		append([]int(nil), top.Routes[0].Switches...),
		append([]int(nil), top.Routes[1].Switches...),
		append([]int(nil), top.Routes[2].Switches...),
	}
	res, err := RepairRoutes(top, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stranded) != 0 || res.Rerouted != 0 {
		t.Errorf("no-op repair reported work: %+v", res)
	}
	for f := range before {
		if !reflect.DeepEqual(top.Routes[f].Switches, before[f]) {
			t.Errorf("flow %d route changed by a no-op repair", f)
		}
	}
}

// TestRepairRoutesDeterministic repairs a synthesized multi-path topology
// twice and requires byte-identical committed routes.
func TestRepairRoutesDeterministic(t *testing.T) {
	g := buildDesign(t, 2, 8)
	dead := [][2]int{}
	run := func() *topology.Topology {
		top := buildTopology(t, g, 2)
		res, err := ComputePaths(top, DefaultConfig())
		if err != nil || !res.Success() {
			t.Fatalf("ComputePaths: %v (failed %v)", err, res.Failed)
		}
		if len(dead) == 0 {
			// Pick the first fabricated inter-switch link as the fault.
			links := top.SwitchLinks()
			if len(links) == 0 {
				t.Skip("routed topology has no inter-switch link")
			}
			dead = append(dead, [2]int{links[0].From, links[0].To})
		}
		if _, err := RepairRoutes(top, DefaultConfig(), dead); err != nil {
			t.Fatalf("RepairRoutes: %v", err)
		}
		return top
	}
	a, b := run(), run()
	for f := range a.Routes {
		if !reflect.DeepEqual(a.Routes[f].Switches, b.Routes[f].Switches) {
			t.Errorf("flow %d repaired differently: %v vs %v", f, a.Routes[f].Switches, b.Routes[f].Switches)
		}
	}
}
