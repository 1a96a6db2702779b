package sunfloor3d_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sunfloor3d"
	"sunfloor3d/internal/synth"
)

// TestAlgorithm1ShortcutsFire runs D_36_8 at 400 MHz, whose sweep needs theta
// retries and the Phase-2 fallback, and checks through the progress stream
// that each shortcut of Algorithm 1 fires at least once: a retry skipped as
// a duplicate, a retry stopped at its first unroutable flow, and a Phase-2
// point left unbuilt. Every scheduled point still reports, none of the
// shortcut points reaches the Result, and serial and parallel runs stay
// byte-identical.
func TestAlgorithm1ShortcutsFire(t *testing.T) {
	b, err := sunfloor3d.BenchmarkByName("D_36_8", 1)
	if err != nil {
		t.Fatal(err)
	}
	reasons := []string{synth.ReasonDuplicateRetry, synth.ReasonFirstUnroutable, synth.ReasonUnneededFallback}
	shortcut := func(reason string) string {
		for _, r := range reasons {
			if strings.HasPrefix(reason, r) {
				return r
			}
		}
		return ""
	}
	var bodies [][]byte
	for _, par := range []int{1, 2} {
		counts := make(map[string]int)
		var events int
		var last sunfloor3d.Event
		e, err := sunfloor3d.NewEngine(sunfloor3d.WithFrequenciesMHz(400), sunfloor3d.WithParallelism(par),
			sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
				events++
				last = ev
				counts[shortcut(ev.Point.FailReason)]++
			}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Synthesize(context.Background(), b.Graph3D)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reasons {
			if counts[r] == 0 {
				t.Errorf("parallelism %d: no progress event with FailReason %q", par, r)
			}
		}
		if last.Done != last.Total || last.Done != events {
			t.Errorf("parallelism %d: last event Done %d, Total %d after %d events", par, last.Done, last.Total, events)
		}
		for i, p := range res.Points {
			if r := shortcut(p.FailReason); r != "" {
				t.Errorf("parallelism %d: point %d in the Result carries shortcut reason %q", par, i, p.FailReason)
			}
		}
		body, err := res.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("Parallelism 1 and 2 marshal different Results")
	}
}
