package sunfloor3d_test

// BenchmarkServerThroughput measures, for the golden-corpus workload specs,
// the cold (synthesizing) and warm (content-addressed cache hit) latency of
// a sunfloor-server request, verifies the two answers are byte-identical,
// and then drives concurrent clients against the warm server to measure
// request throughput and cache hit rate. The CI smoke step runs it with
// -benchtime=1x. The service's acceptance bar — warm-cache latency at least
// 100x below cold — is asserted, not just reported.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sunfloor3d/internal/server"
)

// goldenServerSpecs are the request bodies benchmarked and smoked in CI:
// the golden-corpus generator specs with representative option sets.
var goldenServerSpecs = []struct {
	Name string
	Body string
}{
	{
		Name: "hotspot24",
		Body: `{"gen":"shape=hotspot,cores=24,layers=3,seed=11,hubs=2","options":{"require_latency_met":true}}`,
	},
	{
		Name: "multiapp27",
		Body: `{"gen":"shape=multiapp,cores=27,layers=2,seed=23,apps=3","options":{"frequencies_mhz":[400,800]}}`,
	},
}

// serverLatency is one spec's cold/warm measurement.
type serverLatency struct {
	spec           string
	coldMS, warmMS float64
	speedup        float64
}

// serverThroughput is the concurrent warm-cache phase.
type serverThroughput struct {
	requestsPerSec float64
	cacheHitRate   float64
}

func BenchmarkServerThroughput(b *testing.B) {
	var latencies []serverLatency
	var throughput serverThroughput
	for i := 0; i < b.N; i++ {
		latencies, throughput = runServerThroughput(b)
	}

	minSpeedup := latencies[0].speedup
	for _, r := range latencies {
		if r.speedup < minSpeedup {
			minSpeedup = r.speedup
		}
	}
	b.ReportMetric(minSpeedup, "min_warm_speedup")
	b.ReportMetric(throughput.requestsPerSec, "warm_req/sec")
	b.ReportMetric(throughput.cacheHitRate, "hit_rate")
	if minSpeedup < 100 {
		b.Errorf("warm-cache speedup %.1fx below the 100x acceptance bar (%+v)", minSpeedup, latencies)
	}
}

func runServerThroughput(b *testing.B) ([]serverLatency, serverThroughput) {
	b.Helper()
	s, err := server.New(server.Config{CacheDir: b.TempDir(), Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(body string) ([]byte, time.Duration) {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/synthesize?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		res, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, res)
		}
		return res, time.Since(start)
	}

	// Phase 1: cold and warm latency per golden spec, with byte-identity.
	const warmSamples = 32
	var latencies []serverLatency
	for _, spec := range goldenServerSpecs {
		cold, coldDur := post(spec.Body)
		var warmTotal time.Duration
		for i := 0; i < warmSamples; i++ {
			warm, warmDur := post(spec.Body)
			if !bytes.Equal(cold, warm) {
				b.Fatalf("%s: warm body differs from cold body", spec.Name)
			}
			warmTotal += warmDur
		}
		warmMS := warmTotal.Seconds() * 1e3 / warmSamples
		coldMS := coldDur.Seconds() * 1e3
		latencies = append(latencies, serverLatency{
			spec:    spec.Name,
			coldMS:  coldMS,
			warmMS:  warmMS,
			speedup: coldMS / warmMS,
		})
	}

	// Phase 2: concurrent clients hammering the warm cache.
	const (
		clients   = 8
		perClient = 32
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := goldenServerSpecs[(c+i)%len(goldenServerSpecs)]
				resp, err := http.Post(ts.URL+"/v1/synthesize?wait=1", "application/json", strings.NewReader(spec.Body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("concurrent client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := s.Cache().Stats()
	hits := st.MemHits + st.DiskHits + st.Shared
	hitRate := float64(hits) / float64(hits+st.Misses)
	throughput := serverThroughput{
		requestsPerSec: float64(clients*perClient) / elapsed.Seconds(),
		cacheHitRate:   hitRate,
	}
	return latencies, throughput
}
