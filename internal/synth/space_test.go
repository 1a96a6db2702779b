package synth

import (
	"errors"
	"strings"
	"testing"

	"sunfloor3d/internal/topology"
)

// TestExplorationDoneErrorFailsRun asserts that a Done hook returning an
// error aborts the exploration with that error — the contract the facade's
// fail-fast checkpoint writer depends on.
func TestExplorationDoneErrorFailsRun(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.Space = &Space{Axes: []Axis{
		{Name: AxisLinkWidthBits, Values: []float64{16, 32}},
	}}
	sinkErr := errors.New("checkpoint sink failed")
	var calls int
	opt.SetExplorationHooks(ExplorationHooks{
		Done: func(cell int, pts []DesignPoint) error {
			calls++
			return sinkErr
		},
	})
	_, err := Synthesize(g, opt)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("Synthesize error = %v, want %v", err, sinkErr)
	}
	if calls == 0 {
		t.Fatal("Done hook was never called")
	}
}

func TestSpaceCellEnumeration(t *testing.T) {
	sp := Space{Axes: []Axis{
		{Name: AxisLinkWidthBits, Values: []float64{16, 32}},
		{Name: AxisFreqMHz, Values: []float64{400, 600}},
		{Name: AxisVCs, Values: []float64{1, 2}},
	}}
	opt := DefaultOptions()
	cells := sp.cells(opt)
	if len(cells) != 8 {
		t.Fatalf("NumCells = %d, want 8", len(cells))
	}
	// Frequency outermost, then VCs, then link width — regardless of the
	// order the axes were declared in. Without layer_count/tsv_budget axes
	// the (freq, fold, budget) group degenerates to one group per frequency.
	want := []cellSpec{
		{index: 0, freqIdx: 0, freq: 400, group: 0, vcs: 1, lw: 16, probe: true},
		{index: 1, freqIdx: 0, freq: 400, group: 0, vcs: 1, lw: 32},
		{index: 2, freqIdx: 0, freq: 400, group: 0, vcs: 2, lw: 16},
		{index: 3, freqIdx: 0, freq: 400, group: 0, vcs: 2, lw: 32},
		{index: 4, freqIdx: 1, freq: 600, group: 1, vcs: 1, lw: 16, probe: true},
		{index: 5, freqIdx: 1, freq: 600, group: 1, vcs: 1, lw: 32},
		{index: 6, freqIdx: 1, freq: 600, group: 1, vcs: 2, lw: 16},
		{index: 7, freqIdx: 1, freq: 600, group: 1, vcs: 2, lw: 32},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}
}

func TestSpaceCellsDefaultFrequencies(t *testing.T) {
	// Without a frequency axis, the cells come from Options.FrequenciesMHz.
	sp := Space{Axes: []Axis{{Name: AxisSwitchCount, Values: []float64{2, 4}}}}
	opt := DefaultOptions()
	opt.FrequenciesMHz = []float64{250, 500, 750}
	cells := sp.cells(opt)
	if len(cells) != 3 {
		t.Fatalf("NumCells = %d, want 3", len(cells))
	}
	for i, c := range cells {
		if c.freq != opt.FrequenciesMHz[i] || !c.probe {
			t.Errorf("cell %d = %+v, want probe at %g MHz", i, c, opt.FrequenciesMHz[i])
		}
	}
}

// TestBoundsSoundOnRealPoints is the soundness check behind branch-and-bound
// pruning: for every valid point of a classic exhaustive run, the analytic
// power and latency floors must not exceed the point's actual metrics.
// If this ever fails, Rule-B pruning could discard a non-dominated point.
func TestBoundsSoundOnRealPoints(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.FrequenciesMHz = []float64{250, 400, 600, 800}
	opt.LPOnBest = false
	res, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var totalBW float64
	for _, f := range g.Flows {
		totalBW += f.BandwidthMBps
	}
	const eps = 1e-9
	checked := 0
	for _, p := range res.Points {
		if !p.Valid {
			continue
		}
		checked++
		pf := opt.Lib.PowerFloorMW(g.NumCores(), p.SwitchCount, p.FreqMHz, totalBW)
		if pf > p.Metrics.Power.TotalMW()+eps {
			t.Errorf("power floor %.6g mW exceeds actual %.6g mW at f=%g sw=%d",
				pf, p.Metrics.Power.TotalMW(), p.FreqMHz, p.SwitchCount)
		}
		lf := topology.LatencyFloorCycles(g, opt.Lib, p.FreqMHz)
		if lf > p.Metrics.AvgLatencyCycles+eps {
			t.Errorf("latency floor %.6g cycles exceeds actual %.6g at f=%g sw=%d",
				lf, p.Metrics.AvgLatencyCycles, p.FreqMHz, p.SwitchCount)
		}
	}
	if checked == 0 {
		t.Fatal("no valid points to check bounds against")
	}
}

// TestExplorerPrunedStubsCarryReasons checks the stub bookkeeping: every
// pruned point names its pruning rule and stays out of the valid set.
func TestExplorerPrunedStubsCarryReasons(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = false
	opt.Space = &Space{Axes: []Axis{
		{Name: AxisFreqMHz, Values: []float64{400, 600}},
		{Name: AxisLinkWidthBits, Values: []float64{16, 32, 64}},
	}}
	res, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var ruleA, ruleB int
	for _, p := range res.Points {
		if !p.Pruned {
			continue
		}
		if p.Valid {
			t.Errorf("pruned point at f=%g sw=%d marked valid", p.FreqMHz, p.SwitchCount)
		}
		if p.Topology != nil || p.Phase != 0 {
			t.Errorf("pruned stub at f=%g sw=%d carries evaluation state", p.FreqMHz, p.SwitchCount)
		}
		switch {
		case strings.Contains(p.FailReason, "duplicate of cell"):
			ruleA++
		case strings.Contains(p.FailReason, "power floor"):
			ruleB++
		default:
			t.Errorf("pruned stub has unrecognised reason %q", p.FailReason)
		}
	}
	if ruleA == 0 {
		t.Error("no duplicate-cell (Rule A) stubs on a space with a link-width axis")
	}
	// Rule B may or may not fire on this design; its exactness is covered by
	// the brute-force comparison tests at the facade level.
	_ = ruleB
}
