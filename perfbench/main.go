// Command perfbench is the repository's benchmark: it runs one seeded
// workload through the public sunfloor3d facade (or the in-process HTTP
// daemon), checks every output before reporting a number, and prints one
// JSON result object as the last line of standard output.
//
//	perfbench --workload sweep|explore|faults|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1 a
// serial replay of the flow times the calls into each layer package and the
// object carries the per-layer metrics instead. See README.md for what each
// workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric with its unit; every workload
// reports all of them with --trace 0.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"run_s":            "s",
	"alloc_mb":         "MB",
	"ops_per_s":        "1/s",
	"best_power_mw":    "mW",
	"best_latency_cyc": "cycles",
	"op_p50_ms":        "ms",
	"op_tail_ms":       "ms",
}

// perLayerUnits names every per-layer metric with its unit; every workload
// reports all of them with --trace 1 (a layer a workload does not reach
// reads 0).
var perLayerUnits = map[string]string{
	"partition.calls":        "count",
	"partition.s":            "s",
	"partition.alloc_mb":     "MB",
	"partition.reuse_ratio":  "ratio",
	"topology.calls":         "count",
	"topology.build_s":       "s",
	"topology.eval_s":        "s",
	"route.calls":            "count",
	"route.s":                "s",
	"route.alloc_mb":         "MB",
	"route.useful_ratio":     "ratio",
	"sim.calls":              "count",
	"sim.s":                  "s",
	"sim.alloc_mb":           "MB",
	"sim.cycles_per_s":       "1/s",
	"sim.keep_ratio":         "ratio",
	"contend.calls":          "count",
	"contend.s":              "s",
	"fault.calls":            "count",
	"fault.s":                "s",
	"fault.alloc_mb":         "MB",
	"fault.plans":            "count",
	"place.calls":            "count",
	"place.s":                "s",
	"synth.self_s":           "s",
	"synth.parallel_speedup": "ratio",
	"synth.pruned_ratio":     "ratio",
	"workload.gen_s":         "s",
	"memo.key_s":             "s",
	"memo.lookup_mem_ms":     "ms",
	"memo.lookup_disk_ms":    "ms",
	"memo.mem_hit_ratio":     "ratio",
	"memo.disk_hit_ratio":    "ratio",
	"json.marshal_s":         "s",
	"json.bytes":             "B",
	"server.self_ms":         "ms",
	"trace.coverage":         "ratio",
	"trace.overhead":         "ratio",
}

// outcome is what a workload run hands back to main: the metric values by
// name and the operation/check tally.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

// fail records a failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// pass records a successful operation or check.
func (o *outcome) pass() { o.attempted++ }

// check records one check: ok passes, otherwise the formatted problem fails.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		o.pass()
	} else {
		o.fail(format, args...)
	}
}

// params is what every workload receives from the command line.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// work is the directory the run may write to (temp dirs, span dumps).
	work string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: sweep, explore, faults or serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the traced per-layer metrics instead of the end-to-end ones")
	work := fs.String("work", ".bench_build/perfbench", "directory for temporary files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}
	var out outcome
	var err error
	switch *wl {
	case "sweep", "explore", "faults":
		out, err = runSynth(synthWorkloads[*wl], p)
	case "serve":
		out, err = runServe(defaultServeConfig, p)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (sweep, explore, faults, serve)\n", *wl)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	units := endToEndUnits
	if p.trace {
		units = perLayerUnits
	}
	rep := finalize(&out, units)
	for _, pr := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", pr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// finalize turns a workload outcome into the result line. It reports
// exactly the metrics named in units; a metric the workload did not produce
// is a failure, and a run with any failed operation or check reports no
// number at all.
func finalize(out *outcome, units map[string]string) report {
	rep := report{Metrics: make(map[string]metric, len(units))}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := out.values[name]
		if !ok {
			out.fail("metric %s was not measured", name)
			continue
		}
		rep.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	rep.Attempted, rep.Failed, rep.Correct = out.attempted, out.failed, out.failed == 0
	if !rep.Correct {
		rep.Metrics = map[string]metric{}
	}
	return rep
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
