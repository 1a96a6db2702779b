package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	sf "sunfloor3d"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/memo"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/synth"
)

// synthWorkload is one synthesis workload: a paper benchmark design family
// and the options every Engine.Synthesize call of the run uses.
type synthWorkload struct {
	name  string
	bench string // paper benchmark name
	// designs is how many bench seeds one run cycles through (seed,
	// seed+1, ...); timing a few designs per run keeps one unlucky design
	// from moving the run's medians.
	designs int
	freqs   []float64
	// lws, when set, makes the run an explorer run over freq_mhz x
	// link_width_bits instead of the classic frequency sweep.
	lws []float64
	// simCycles/simDrain, when set, enable simulation triaged by the
	// fidelity ladder at band (WithContention + WithSimBand).
	simCycles, simDrain int
	band                float64
	// faults enables WithSparing(wafer-level-A, 0.99) and the default
	// WithFaultModel.
	faults bool
}

var synthWorkloads = map[string]synthWorkload{
	"sweep": {name: "sweep", bench: "D_36_8", designs: 4, freqs: []float64{400, 600, 800}},
	"explore": {name: "explore", bench: "D_36_4", designs: 4, freqs: []float64{400, 600, 800},
		lws: []float64{32, 64, 128}, simCycles: 32000, simDrain: 16000, band: 0.05},
	"faults": {name: "faults", bench: "D_36_4", designs: 8, freqs: []float64{400, 600, 800}, faults: true},
}

const (
	sparingProcess = "wafer-level-A"
	sparingYield   = 0.99
)

// simConfig is the simulation configuration of the workload.
func (w synthWorkload) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cycles = w.simCycles
	cfg.DrainCycles = w.simDrain
	return cfg
}

// options returns the facade options of the workload at the given
// parallelism.
func (w synthWorkload) options(parallelism int) ([]sf.Option, error) {
	opts := []sf.Option{sf.WithFrequenciesMHz(w.freqs...), sf.WithParallelism(parallelism)}
	if w.lws != nil {
		opts = append(opts, sf.WithSpace(sf.Space{Axes: []sf.Axis{
			{Name: sf.AxisFreqMHz, Values: w.freqs},
			{Name: sf.AxisLinkWidthBits, Values: w.lws},
		}}))
	}
	if w.simCycles > 0 {
		opts = append(opts, sf.WithSimulation(w.simConfig()), sf.WithContention(), sf.WithSimBand(w.band))
	}
	if w.faults {
		proc, err := sf.ProcessByName(sparingProcess)
		if err != nil {
			return nil, err
		}
		opts = append(opts, sf.WithSparing(proc, sparingYield), sf.WithFaultModel(sf.DefaultFaultModelConfig()))
	}
	return opts, nil
}

// synthOptions returns the internal options the facade options above
// configure, for the traced replay. runSynth checks that both produce the
// same request fingerprint.
func (w synthWorkload) synthOptions() (synth.Options, error) {
	o := synth.DefaultOptions()
	o.FrequenciesMHz = append([]float64(nil), w.freqs...)
	o.Parallelism = 1
	if w.lws != nil {
		o.Space = &synth.Space{Axes: []synth.Axis{
			{Name: synth.AxisFreqMHz, Values: w.freqs},
			{Name: synth.AxisLinkWidthBits, Values: w.lws},
		}}
	}
	if w.simCycles > 0 {
		cfg := w.simConfig()
		o.Sim = &cfg
		o.Contend = true
		o.SimBand = w.band
	}
	if w.faults {
		proc, err := sf.ProcessByName(sparingProcess)
		if err != nil {
			return o, err
		}
		o.Sparing = &fault.SparingConfig{Process: proc, TargetYield: sparingYield}
		mc := fault.DefaultModelConfig()
		o.Fault = &mc
	}
	return o, o.Validate()
}

// synthRun is the set-up state of one synthesis run.
type synthRun struct {
	designs  []*sf.Design
	parallel *sf.Engine
	serial   *sf.Engine
}

// setup generates the designs, builds the engines and runs one discarded
// parallel warm-up synthesis of design i.
func (w synthWorkload) setup(seed int64, i int, st *synthRun) error {
	st.designs = make([]*sf.Design, w.designs)
	for d := range st.designs {
		b, err := sf.BenchmarkByName(w.bench, seed+int64(d))
		if err != nil {
			return err
		}
		st.designs[d] = b.Graph3D
	}
	par, err := w.options(2)
	if err != nil {
		return err
	}
	if st.parallel, err = sf.NewEngine(par...); err != nil {
		return err
	}
	ser, err := w.options(1)
	if err != nil {
		return err
	}
	if st.serial, err = sf.NewEngine(ser...); err != nil {
		return err
	}
	d := i % w.designs
	if _, err := st.parallel.Synthesize(context.Background(), st.designs[d]); err != nil {
		return fmt.Errorf("warm-up of design %d: %w", d, err)
	}
	return nil
}

// runSynth runs a synthesis workload: three timed set-ups, then either the
// measured runs (end-to-end metrics) or the traced replay (per-layer
// metrics).
func runSynth(w synthWorkload, p params) (outcome, error) {
	out := outcome{values: make(map[string]float64)}
	var st synthRun
	var setups []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := w.setup(p.seed, i, &st); err != nil {
			return out, err
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	// The replay and the timed runs must see the same request: the facade
	// options and their internal mirror must fingerprint identically.
	facadeOpts, err := w.options(2)
	if err != nil {
		return out, err
	}
	mirror, err := w.synthOptions()
	if err != nil {
		return out, err
	}
	key, err := sf.Fingerprint(st.designs[0], facadeOpts...)
	if err != nil {
		return out, err
	}
	out.check(key == memo.Key(st.designs[0], mirror), "facade options and their replay mirror fingerprint differently")

	if p.trace {
		err = w.traced(p, &st, mirror, &out)
	} else {
		out.values["setup_s"] = median(setups)
		err = w.timed(p, &st, &out)
	}
	return out, err
}

// timed first runs the serial engine once over the designs: those Results
// are the correctness references, and their design points give the
// per-point latency (op_p50_ms, op_tail_ms) of an evaluation that has a
// core to itself. It then runs the parallel engine over the designs in
// passes (design 0, 1, ..., each once) for the measured time and checks
// every Result against its design's serial reference. Only whole passes
// are timed, so every design weighs the same in every metric; another pass
// starts while at least half a pass still fits in the measured time.
func (w synthWorkload) timed(p params, st *synthRun, out *outcome) error {
	reference := make([][]byte, w.designs)
	serialSims := make([][]byte, w.designs)
	var pointMS []float64
	for d, design := range st.designs {
		res, err := st.serial.Synthesize(context.Background(), design)
		if err != nil {
			return fmt.Errorf("serial run of design %d: %w", d, err)
		}
		if reference[d], err = res.MarshalStable(); err != nil {
			return err
		}
		if serialSims[d], err = simStats(res); err != nil {
			return err
		}
		for _, pt := range res.Points {
			if !pt.Pruned {
				pointMS = append(pointMS, millis(pt.Elapsed))
			}
		}
	}
	// Re-simulating every simulated point costs about as much as the run
	// itself, so one design per run (chosen by the seed) gets the fresh
	// simulation check; every Result's simulations must equal the serial
	// run's.
	resim := int(p.seed % int64(w.designs))
	if resim < 0 {
		resim += w.designs
	}

	walls := make([][]float64, w.designs)
	var alloc uint64
	var points, runs int
	var total time.Duration
	best := make([]*sf.DesignPoint, w.designs)
	resimulated := false
	budget := time.Duration(p.seconds * float64(time.Second))
	for passes := 1; ; passes++ {
		for d := range st.designs {
			a0 := heapAllocs()
			start := time.Now()
			res, err := st.parallel.Synthesize(context.Background(), st.designs[d])
			wall := time.Since(start)
			alloc += heapAllocs() - a0
			total += wall
			runs++
			if err != nil {
				out.fail("design %d: %v", d, err)
				continue
			}
			out.pass()
			walls[d] = append(walls[d], seconds(wall))
			for _, pt := range res.Points {
				if !pt.Pruned {
					points++
				}
			}
			body, err := res.MarshalStable()
			out.check(err == nil && bytes.Equal(body, reference[d]),
				"design %d: parallel Result bytes differ from the serial run", d)
			if b := res.Best(); b != nil {
				best[d] = b
			} else {
				out.fail("design %d: no valid design point", d)
			}
			sims, err := simStats(res)
			out.check(err == nil && bytes.Equal(sims, serialSims[d]),
				"design %d: parallel simulation Stats differ from the serial run", d)
			if w.simCycles > 0 && d == resim && !resimulated {
				resimulated = true
				w.checkSimStats(res, d, out)
			}
		}
		if total+total/time.Duration(2*passes) >= budget {
			break
		}
	}
	// Per-design medians, averaged over the designs.
	var runS, power, lat float64
	for d := range st.designs {
		if len(walls[d]) == 0 || best[d] == nil {
			return fmt.Errorf("design %d: no successful synthesis run", d)
		}
		runS += median(walls[d])
		power += best[d].Metrics.Power.TotalMW()
		lat += best[d].Metrics.AvgLatencyCycles
	}
	k := float64(w.designs)
	tail, _ := percentile(pointMS, 0.90)
	fmt.Fprintf(os.Stderr, "%s: %d parallel runs (%d designs) in %.2fs, %d design points; %d serial points\n",
		w.name, runs, w.designs, seconds(total), points, len(pointMS))
	out.values["run_s"] = runS / k
	out.values["alloc_mb"] = mb(alloc) / float64(runs)
	out.values["ops_per_s"] = float64(points) / seconds(total)
	out.values["best_power_mw"] = power / k
	out.values["best_latency_cyc"] = lat / k
	out.values["op_p50_ms"] = median(pointMS)
	out.values["op_tail_ms"] = tail
	return nil
}

// simStats serialises the simulation Stats of every point (which
// MarshalStable leaves out).
func simStats(res *sf.Result) ([]byte, error) {
	sims := make([]*sf.SimStats, len(res.Points))
	for i := range res.Points {
		sims[i] = res.Points[i].Sim
	}
	return json.Marshal(sims)
}

// checkSimStats re-simulates every simulated point of an explorer Result
// and requires byte-identical statistics.
func (w synthWorkload) checkSimStats(res *sf.Result, d int, out *outcome) {
	cfg := w.simConfig()
	simulated := 0
	for i := range res.Points {
		pt := &res.Points[i]
		if (pt.SimTriage == "sim") != (pt.Sim != nil) {
			out.fail("design %d point %d: triage %q does not match its simulation", d, i, pt.SimTriage)
			continue
		}
		if pt.Sim == nil {
			continue
		}
		simulated++
		top := pt.Topology()
		if top == nil {
			out.fail("design %d point %d: simulated point has no topology", d, i)
			continue
		}
		fresh, err := top.Simulate(cfg)
		if err != nil {
			out.fail("design %d point %d: re-simulation: %v", d, i, err)
			continue
		}
		a, _ := json.Marshal(pt.Sim)
		b, _ := json.Marshal(fresh)
		out.check(bytes.Equal(a, b), "design %d point %d: simulated Stats differ from a fresh sim.Run", d, i)
	}
	out.check(simulated > 0, "design %d: no point was simulated", d)
}

// traced alternates untraced serial runs, traced replays and parallel runs
// of design 0 for the measured time, checks each replay against the
// program's Result, and reports the per-layer table.
func (w synthWorkload) traced(p params, st *synthRun, mirror synth.Options, out *outcome) error {
	for name := range perLayerUnits {
		out.values[name] = 0
	}
	design := st.designs[0]
	tr := newTracer()
	var serialWalls, tracedWalls, parallelWalls []float64
	var hits, misses, routeCalls, routeUseful, plans int
	var simCycles int64
	var res *sf.Result
	var reference []byte
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	replays := 0
	for replays == 0 || time.Now().Before(deadline) {
		start := time.Now()
		r, err := st.serial.Synthesize(context.Background(), design)
		if err != nil {
			return err
		}
		serialWalls = append(serialWalls, seconds(time.Since(start)))
		res = r
		if reference == nil {
			if reference, err = res.MarshalStable(); err != nil {
				return err
			}
		}

		tr.run = replays
		rp := newReplayer(tr, design, mirror)
		start = time.Now()
		root := tr.begin("synth")
		pts, err := rp.run(res)
		tr.end(root)
		tracedWalls = append(tracedWalls, seconds(time.Since(start)))
		if err != nil {
			out.fail("replay: %v", err)
			break
		}
		bad := replayFidelity(res, pts, rp.hits, rp.misses)
		if bi := rp.bestIndex(pts); bi != res.BestIndex {
			bad = append(bad, fmt.Sprintf("replayed best point %d, Result %d", bi, res.BestIndex))
		}
		if len(bad) == 0 {
			out.pass()
		}
		for _, b := range bad {
			out.fail("replay fidelity: %s", b)
		}
		hits += rp.hits
		misses += rp.misses
		routeCalls += rp.routeCalls
		routeUseful += rp.routeUseful
		simCycles += rp.simCycles
		plans += rp.faultPlans
		replays++

		start = time.Now()
		pr, err := st.parallel.Synthesize(context.Background(), design)
		if err != nil {
			return err
		}
		parallelWalls = append(parallelWalls, seconds(time.Since(start)))
		body, err := pr.MarshalStable()
		out.check(err == nil && bytes.Equal(body, reference), "parallel Result bytes differ from the serial run")
	}
	if err := tr.write(filepath.Join(p.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, p.seed))); err != nil {
		return err
	}

	per := float64(replays)
	t := tr.totals()
	get := func(name string) *layerTotals {
		if lt := t[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	var layerSum float64
	for name, lt := range t {
		if name != "synth" && name != "point" {
			layerSum += seconds(lt.self)
		}
	}
	layerSum /= per
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	part, build, eval := get("partition"), get("topology.build"), get("topology.eval")
	rt, sm, ct, ft, pl := get("route"), get("sim"), get("contend"), get("fault"), get("place")
	v := out.values
	v["partition.calls"] = float64(part.calls) / per
	v["partition.s"] = seconds(part.self) / per
	v["partition.alloc_mb"] = mb(part.alloc) / per
	v["partition.reuse_ratio"] = ratio(hits, hits+misses)
	v["topology.calls"] = float64(build.calls) / per
	v["topology.build_s"] = seconds(build.self) / per
	v["topology.eval_s"] = seconds(eval.self) / per
	v["route.calls"] = float64(rt.calls) / per
	v["route.s"] = seconds(rt.self) / per
	v["route.alloc_mb"] = mb(rt.alloc) / per
	v["route.useful_ratio"] = ratio(routeUseful, routeCalls)
	v["sim.calls"] = float64(sm.calls) / per
	v["sim.s"] = seconds(sm.self) / per
	v["sim.alloc_mb"] = mb(sm.alloc) / per
	if sm.self > 0 {
		v["sim.cycles_per_s"] = float64(simCycles) / seconds(sm.self)
	}
	v["contend.calls"] = float64(ct.calls) / per
	v["contend.s"] = seconds(ct.self) / per
	v["fault.calls"] = float64(ft.calls) / per
	v["fault.s"] = seconds(ft.self) / per
	v["fault.alloc_mb"] = mb(ft.alloc) / per
	v["fault.plans"] = float64(plans) / per
	v["place.calls"] = float64(pl.calls) / per
	v["place.s"] = seconds(pl.self) / per

	serial := median(serialWalls)
	var valid, simulated, pruned int
	for _, pt := range res.Points {
		if pt.Valid {
			valid++
		}
		if pt.Sim != nil {
			simulated++
		}
		if pt.Pruned {
			pruned++
		}
	}
	v["sim.keep_ratio"] = ratio(simulated, valid)
	v["synth.self_s"] = serial - layerSum
	v["synth.parallel_speedup"] = serial / median(parallelWalls)
	v["synth.pruned_ratio"] = ratio(pruned, len(res.Points))
	v["trace.coverage"] = layerSum / serial
	v["trace.overhead"] = median(tracedWalls)/serial - 1
	return nil
}
