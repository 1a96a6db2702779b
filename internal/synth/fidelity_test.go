package synth

import (
	"reflect"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/sim"
)

// ladderPoint clears the fields the fidelity ladder is allowed to change —
// the triage marker and the contention annotation — and the wall-clock
// timings, so a triaged point compares equal to its fully simulated twin.
func ladderPoint(p DesignPoint) DesignPoint {
	p.SimTriage = ""
	p.Contention = nil
	p.Elapsed = 0
	p.SimElapsed = 0
	return p
}

// TestFidelityLadderMatchesFullSimulation is the fidelity ladder's exactness
// gate on paper designs. The full arm simulates every valid point of an
// unpruned explorer sweep over the library's operating frequencies; the
// triaged arm runs the same (frequency x switch count) sweep through the
// classic engine with the contention estimate cutting the Pareto band, so
// only band members are simulated. Both arms must report the same Pareto
// front and best point. The front is taken on zero-load latency, so short
// simulations suffice.
func TestFidelityLadderMatchesFullSimulation(t *testing.T) {
	simCfg := sim.DefaultConfig()
	simCfg.Cycles = 500
	simCfg.DrainCycles = 500

	full := DefaultOptions()
	full.Space = &Space{NoPrune: true, Axes: []Axis{
		{Name: AxisFreqMHz, Values: []float64{400, 600, 800}},
	}}
	full.Lib.LinkWidthBits = 64
	full.Sim = &simCfg
	triaged := full
	triaged.Space = nil
	triaged.FrequenciesMHz = []float64{400, 600, 800}
	// The explorer never LP-refines the best point, so the classic arm must
	// not either.
	triaged.LPOnBest = false
	triaged.Contend = true
	triaged.SimBand = 0.05
	for _, o := range []Options{full, triaged} {
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range []string{"D_26_media", "D_36_4"} {
		t.Run(name, func(t *testing.T) {
			g := bench.ByNameMust(name, 1).Graph3D
			fullRes, err := Synthesize(g, full)
			if err != nil {
				t.Fatal(err)
			}
			triagedRes, err := Synthesize(g, triaged)
			if err != nil {
				t.Fatal(err)
			}
			if len(triagedRes.Points) != len(fullRes.Points) {
				t.Fatalf("sweep size diverged: %d full vs %d triaged points", len(fullRes.Points), len(triagedRes.Points))
			}
			skipped := 0
			for _, p := range triagedRes.Points {
				if p.SimTriage == "skip" {
					skipped++
				}
			}
			if skipped == 0 {
				t.Error("triage simulated every valid point; the ladder was not exercised")
			}

			ff, tf := fullRes.ParetoFront(), triagedRes.ParetoFront()
			if len(ff) != len(tf) {
				t.Fatalf("front sizes differ: %d full vs %d triaged", len(ff), len(tf))
			}
			for i := range ff {
				if !reflect.DeepEqual(ladderPoint(ff[i]), ladderPoint(tf[i])) {
					t.Fatalf("front point %d diverged from the full-simulation front:\nfull:    %+v\ntriaged: %+v", i, ff[i], tf[i])
				}
			}
			if (fullRes.Best == nil) != (triagedRes.Best == nil) {
				t.Fatal("only one run found a best point")
			}
			if fullRes.Best != nil && !reflect.DeepEqual(ladderPoint(*fullRes.Best), ladderPoint(*triagedRes.Best)) {
				t.Fatalf("triaged best point diverged from the full-simulation best:\nfull:    %+v\ntriaged: %+v", *fullRes.Best, *triagedRes.Best)
			}
		})
	}
}
