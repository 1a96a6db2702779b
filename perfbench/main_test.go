package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// toySynth shrinks a synthesis workload to one small design at one
// frequency (and a short simulation) so every code path runs in seconds.
func toySynth(name string) synthWorkload {
	w := synthWorkloads[name]
	w.bench = "D_36_4"
	w.designs = 1
	w.freqs = []float64{400}
	if w.simCycles > 0 {
		w.simCycles, w.simDrain = 1000, 500
	}
	return w
}

var toyServe = serveConfig{
	workingSet: 6, memEntries: 2, coldEvery: 4, cores: 8,
	freqs: []float64{400}, clients: 2,
	minCold: 0, minHits: 0, maxSeconds: 10,
}

// requireReport checks that a toy run passed every check and emitted every
// named metric with its unit.
func requireReport(t *testing.T, out outcome, units map[string]string) {
	t.Helper()
	rep := finalize(&out, units)
	for _, pr := range out.problems {
		t.Errorf("check failed: %s", pr)
	}
	if !rep.Correct || rep.Attempted < 1 {
		t.Fatalf("report not correct: attempted %d, failed %d", rep.Attempted, rep.Failed)
	}
	for name, unit := range units {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	if len(rep.Metrics) != len(units) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(units))
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps the metric tables of the code and
// of BENCHMARK.json at the repository root identical, units included.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		declared []struct{ Name, Unit string }
		units    map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(tc.declared) != len(tc.units) {
			t.Errorf("BENCHMARK.json declares %d metrics, the code reports %d", len(tc.declared), len(tc.units))
		}
		for _, m := range tc.declared {
			if u, ok := tc.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s [%s]: code reports unit %q (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

func TestShortWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range []string{"sweep", "explore", "faults"} {
		for _, trace := range []bool{false, true} {
			p := params{seed: 1, seconds: 0, trace: trace, work: t.TempDir()}
			out, err := runSynth(toySynth(name), p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			units := endToEndUnits
			if trace {
				units = perLayerUnits
			}
			requireReport(t, out, units)
		}
	}
	for _, trace := range []bool{false, true} {
		p := params{seed: 1, seconds: 0.5, trace: trace, work: t.TempDir()}
		out, err := runServe(toyServe, p)
		if err != nil {
			t.Fatalf("serve trace=%v: %v", trace, err)
		}
		units := endToEndUnits
		if trace {
			units = perLayerUnits
		}
		requireReport(t, out, units)
	}
}

func TestReplayMatchesTheProgram(t *testing.T) {
	w := toySynth("faults")
	var st synthRun
	if err := w.setup(1, 0, &st); err != nil {
		t.Fatal(err)
	}
	mirror, err := w.synthOptions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.serial.Synthesize(context.Background(), st.designs[0])
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(newTracer(), st.designs[0], mirror)
	pts, err := rp.run(res)
	if err != nil {
		t.Fatal(err)
	}
	if bad := replayFidelity(res, pts, rp.hits, rp.misses); len(bad) != 0 {
		t.Fatalf("faithful replay rejected: %v", bad)
	}

	// A perturbed replayed metric must be rejected, not reported.
	for _, p := range pts {
		if p != nil && p.valid {
			p.metrics.Power.SwitchMW *= 1 + 1e-12
			break
		}
	}
	if bad := replayFidelity(res, pts, rp.hits, rp.misses); len(bad) != 1 {
		t.Fatalf("perturbed replay: got %d divergences, want 1: %v", len(bad), bad)
	}
	if bad := replayFidelity(res, pts, rp.hits+1, rp.misses); len(bad) != 2 {
		t.Fatalf("perturbed cache count not reported: %v", bad)
	}
}

func TestCorruptedServedBodyIsAFailure(t *testing.T) {
	st := &serveRun{bodies: [][]byte{[]byte(`{"points":[]}`), []byte(`{"points":[1]}`)}}
	good := []sample{
		{reply: reply{lat: time.Millisecond, body: []byte(`{"points":[]}`), tier: "memory"}, id: 0},
		{reply: reply{lat: time.Millisecond, body: []byte(`{"points":[1]}`), tier: "disk"}, id: 1},
		{reply: reply{lat: time.Millisecond, tier: "computed"}, id: 7, cold: true},
	}
	full := toyServe
	full.minHits = 1 // checks the tier split too
	var out outcome
	full.checkSamples(st, good, &out)
	if out.failed != 0 {
		t.Fatalf("clean samples failed: %v", out.problems)
	}

	flipped := append([]byte(nil), good[1].body...)
	flipped[3] ^= 0x01
	bad := append([]sample(nil), good...)
	bad[1].body = flipped
	bad[2].tier = "disk" // a never-seen spec cannot come from a cache tier
	out = outcome{values: map[string]float64{}}
	for name := range endToEndUnits {
		out.values[name] = 1
	}
	full.checkSamples(st, bad, &out)
	if out.failed != 2 {
		t.Fatalf("got %d failures, want 2 (flipped byte, wrong tier): %v", out.failed, out.problems)
	}
	if rep := finalize(&out, endToEndUnits); rep.Correct || len(rep.Metrics) != 0 {
		t.Fatalf("a failed run must report no number: %+v", rep)
	}
}

func TestMissingMetricIsAFailure(t *testing.T) {
	out := outcome{values: map[string]float64{"setup_s": 1}}
	out.pass()
	rep := finalize(&out, endToEndUnits)
	if rep.Correct || rep.Failed != len(endToEndUnits)-1 {
		t.Fatalf("missing metrics not counted: %+v", rep)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := percentile(xs, 0.90); v != 90 || beyond != 10 {
		t.Fatalf("p90 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
