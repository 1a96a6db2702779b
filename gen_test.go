package sunfloor3d_test

// Tests of the workload-generation surface of the public API: byte
// determinism of GenerateBenchmark, spec-string parsing, and LoadBenchmark
// round-tripping through the text spec formats.

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sunfloor3d"
)

// designBytes serialises a design through WriteDesign; byte equality is the
// public determinism contract of GenerateBenchmark.
func designBytes(t *testing.T, d *sunfloor3d.Design) []byte {
	t.Helper()
	var core, comm bytes.Buffer
	if err := sunfloor3d.WriteDesign(&core, &comm, d); err != nil {
		t.Fatal(err)
	}
	return append(core.Bytes(), comm.Bytes()...)
}

func TestGenerateBenchmarkDeterministic(t *testing.T) {
	for _, shape := range sunfloor3d.WorkloadShapes() {
		spec := sunfloor3d.GenSpec{Shape: shape, Cores: 18, Layers: 2, Seed: 9}
		a, err := sunfloor3d.GenerateBenchmark(spec)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		b, err := sunfloor3d.GenerateBenchmark(spec)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if !bytes.Equal(designBytes(t, a.Graph3D), designBytes(t, b.Graph3D)) {
			t.Errorf("%v: two GenerateBenchmark runs differ byte-wise (3-D)", shape)
		}
		if !bytes.Equal(designBytes(t, a.Graph2D), designBytes(t, b.Graph2D)) {
			t.Errorf("%v: two GenerateBenchmark runs differ byte-wise (2-D)", shape)
		}
		if a.Name == "" || a.Name != b.Name {
			t.Errorf("%v: unstable benchmark name %q vs %q", shape, a.Name, b.Name)
		}
		if a.Layers != 2 {
			t.Errorf("%v: Layers = %d, want 2", shape, a.Layers)
		}
	}
}

func TestParseGenSpec(t *testing.T) {
	spec, err := sunfloor3d.ParseGenSpec("shape=hotspot,cores=40,layers=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Shape != sunfloor3d.ShapeHotspot || spec.Cores != 40 || spec.Layers != 3 || spec.Seed != 7 {
		t.Errorf("parsed spec = %+v", spec)
	}
	if _, err := sunfloor3d.GenerateBenchmark(spec); err != nil {
		t.Errorf("parsed spec does not generate: %v", err)
	}
	full, err := sunfloor3d.ParseGenSpec(
		"shape=multiapp, cores=24, apps=3, memfrac=0.3, bandwidth=800, spread=0.4, slack=2.5, unconstrained=0.1, hubs=2")
	if err != nil {
		t.Fatal(err)
	}
	if full.Apps != 3 || full.MemoryFraction != 0.3 || full.MeanBandwidthMBps != 800 ||
		full.BandwidthSpread != 0.4 || full.LatencySlack != 2.5 ||
		full.UnconstrainedFraction != 0.1 || full.Hubs != 2 {
		t.Errorf("parsed full spec = %+v", full)
	}
	for _, bad := range []string{
		"shape",                   // not key=value
		"shape=mesh",              // unknown shape
		"cores=abc",               // bad int
		"teapot=1",                // unknown key
		"cores=3",                 // fails Spec.Validate
		"shape=hotspot,slack=0.2", // fails Spec.Validate
	} {
		if _, err := sunfloor3d.ParseGenSpec(bad); err == nil {
			t.Errorf("ParseGenSpec(%q) should fail", bad)
		}
	}
	// Non-finite or overflowing floats are rejected by field name before
	// any design is generated, let alone synthesized.
	for gen, field := range map[string]string{
		"shape=hotspot,cores=8,bandwidth=1e308": "MeanBandwidthMBps",
		"shape=hotspot,cores=8,bandwidth=inf":   "MeanBandwidthMBps",
		"shape=hotspot,cores=8,slack=inf":       "LatencySlack",
		"shape=hotspot,cores=8,memfrac=nan":     "MemoryFraction",
	} {
		if _, err := sunfloor3d.ParseGenSpec(gen); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("ParseGenSpec(%q) = %v, want an error naming %s", gen, err, field)
		}
	}
}

func TestLoadBenchmark(t *testing.T) {
	gen, err := sunfloor3d.GenerateBenchmark(sunfloor3d.GenSpec{
		Shape: sunfloor3d.ShapeLayered, Cores: 12, Layers: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var core, comm bytes.Buffer
	if err := sunfloor3d.WriteDesign(&core, &comm, gen.Graph3D); err != nil {
		t.Fatal(err)
	}
	loaded, err := sunfloor3d.LoadBenchmark("roundtrip", &core, &comm)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "roundtrip" {
		t.Errorf("Name = %q", loaded.Name)
	}
	if loaded.Layers != 3 {
		t.Errorf("Layers = %d, want 3", loaded.Layers)
	}
	if !bytes.Equal(designBytes(t, gen.Graph3D), designBytes(t, loaded.Graph3D)) {
		t.Error("loaded benchmark differs from the generated design")
	}
	if got := loaded.Graph2D.NumLayers(); got != 1 {
		t.Errorf("flattened 2-D graph spans %d layers", got)
	}

	if _, err := sunfloor3d.LoadBenchmark("broken",
		strings.NewReader("core a 1 1 0 0 0\n"),
		strings.NewReader("flow a ghost 100 0 request\n")); err == nil {
		t.Error("LoadBenchmark with an unknown flow endpoint should fail")
	}
}

// renderGenSpec writes every field of a spec back in ParseGenSpec's
// key=value form, in a fixed key order. Floats use the shortest
// representation that parses back to the same value.
func renderGenSpec(s sunfloor3d.GenSpec) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("shape=%s,cores=%d,layers=%d,seed=%d,memfrac=%s,apps=%d,hubs=%d,bandwidth=%s,spread=%s,slack=%s,unconstrained=%s",
		s.Shape, s.Cores, s.Layers, s.Seed, f(s.MemoryFraction), s.Apps, s.Hubs,
		f(s.MeanBandwidthMBps), f(s.BandwidthSpread), f(s.LatencySlack), f(s.UnconstrainedFraction))
}

// FuzzParseGenSpec checks the -gen string boundary: ParseGenSpec never
// panics, and an accepted spec, rendered key by key in a fixed order,
// parses back to an equal spec.
func FuzzParseGenSpec(f *testing.F) {
	f.Add("shape=hotspot,cores=40,layers=3,seed=7")
	f.Add("shape=multiapp,cores=27,layers=3,seed=2,apps=4")
	f.Add(" shape=layered , cores=20,,layers=2,seed=-1,")
	f.Add("memfrac=0.5,hubs=3,bandwidth=1e3,spread=0.25,slack=1.5,unconstrained=-0")
	f.Add("cores=+8,seed=9223372036854775807,memfrac=0x1p-2")
	f.Add("shape=pipeline,cores=300")
	f.Add("slack=NaN")
	f.Add("bandwidth=Inf,spread=1")
	f.Add("cores")
	f.Add("ghost=1")
	f.Add("=,=")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := sunfloor3d.ParseGenSpec(s)
		if err != nil {
			return
		}
		r := renderGenSpec(spec)
		again, err := sunfloor3d.ParseGenSpec(r)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose rendering %q is rejected: %v", s, spec, r, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("%q parsed to %+v, its rendering %q to %+v", s, spec, r, again)
		}
	})
}
