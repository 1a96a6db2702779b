package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	sf "sunfloor3d"
	"sunfloor3d/internal/memo"
	"sunfloor3d/internal/server"
	"sunfloor3d/internal/workload"
)

// serveConfig sizes the serve workload.
type serveConfig struct {
	// workingSet is the number of distinct generator specs the stream
	// repeats; memEntries, smaller, bounds the daemon's memory tier, so
	// hits split between the memory and disk tiers.
	workingSet int
	memEntries int
	// coldEvery places one never-seen spec at a seeded position in every
	// block of this many requests.
	coldEvery int
	cores     int
	freqs     []float64
	clients   int
	// minCold and minHits are the sample floors of the stated percentiles:
	// at least 10 cold requests beyond p90 and 10 hits beyond p99. A run
	// continues past --seconds until both are met (up to maxSeconds).
	minCold, minHits int
	maxSeconds       float64
}

var defaultServeConfig = serveConfig{
	workingSet: 32, memEntries: 12, coldEvery: 10, cores: 24,
	freqs: []float64{400, 600}, clients: 2,
	minCold: 100, minHits: 1000, maxSeconds: 60,
}

var genShapes = []string{"pipeline", "hotspot", "multiapp", "layered"}

// spec returns the generator string of request-stream spec id under the
// run seed. Working-set specs use ids below 1<<20, cold specs above.
func (c serveConfig) spec(seed int64, id int) string {
	return fmt.Sprintf("shape=%s,cores=%d,seed=%d", genShapes[id%len(genShapes)], c.cores, seed<<24+int64(id))
}

// requestBody is the JSON body of one synthesis request.
func (c serveConfig) requestBody(gen string) []byte {
	b, _ := json.Marshal(server.SynthesizeRequest{Gen: gen, Options: &server.RequestOptions{FrequenciesMHz: c.freqs}})
	return b
}

// daemon is one in-process sunfloor3d server on a loopback listener.
type daemon struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	// stopped makes stop idempotent (a deferred stop after an explicit one).
	stopped bool
}

func startDaemon(c serveConfig, work string) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "serve-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{CacheDir: dir, MemEntries: c.memEntries, Workers: c.clients, Capacity: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir: dir, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String() + "/v1/synthesize?wait=1",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: c.clients, DisableCompression: true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down, waits for both, and
// removes the cache directory.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is one answered request.
type reply struct {
	lat  time.Duration
	body []byte
	tier string // X-Sunfloor-Cache
	key  string // X-Sunfloor-Key
}

// post sends one synchronous request and returns the reply.
func (d *daemon) post(body []byte) (reply, error) {
	start := time.Now()
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return reply{lat: lat, body: b, tier: resp.Header.Get("X-Sunfloor-Cache"), key: resp.Header.Get("X-Sunfloor-Key")}, nil
}

// populate requests every working-set spec once from the configured number
// of clients, returning the cold bodies by spec id.
func (d *daemon) populate(c serveConfig, seed int64) ([][]byte, error) {
	bodies := make([][]byte, c.workingSet)
	errs := make([]error, c.clients)
	var wg sync.WaitGroup
	for cl := 0; cl < c.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for id := cl; id < c.workingSet; id += c.clients {
				r, err := d.post(c.requestBody(c.spec(seed, id)))
				if err == nil && r.tier != string(memo.Computed) {
					err = fmt.Errorf("first request of spec %d served from %q", id, r.tier)
				}
				if err != nil {
					errs[cl] = err
					return
				}
				bodies[id] = r.body
			}
		}(cl)
	}
	wg.Wait()
	return bodies, errors.Join(errs...)
}

// sample is one measured request.
type sample struct {
	reply
	cold bool
	id   int
}

// stream is one client's seeded request sequence: one cold spec at a
// random position of every block of coldEvery requests, the rest uniform
// over the working set.
type stream struct {
	c        serveConfig
	rng      *rand.Rand
	coldAt   int
	pos      int
	nextCold int
}

func newStream(c serveConfig, seed int64, client int) *stream {
	return &stream{c: c, rng: rand.New(rand.NewSource(seed*7919 + int64(client))), nextCold: 1<<20 + client<<16}
}

// next returns the spec id of the next request and whether it is cold.
func (s *stream) next() (int, bool) {
	if s.pos%s.c.coldEvery == 0 {
		s.coldAt = s.rng.Intn(s.c.coldEvery)
	}
	cold := s.pos%s.c.coldEvery == s.coldAt
	s.pos++
	if cold {
		s.nextCold++
		return s.nextCold, true
	}
	return s.rng.Intn(s.c.workingSet), false
}

// serveRun is the set-up state of one serve run.
type serveRun struct {
	d      *daemon
	bodies [][]byte
}

// runServe runs the serve workload.
func runServe(c serveConfig, p params) (outcome, error) {
	out := outcome{values: make(map[string]float64)}
	var setups []float64
	var st serveRun
	for i := 0; i < 3; i++ {
		if st.d != nil {
			if err := st.d.stop(); err != nil {
				return out, err
			}
		}
		start := time.Now()
		d, err := startDaemon(c, p.work)
		if err != nil {
			return out, err
		}
		bodies, err := d.populate(c, p.seed)
		setups = append(setups, seconds(time.Since(start)))
		st.d = d
		if err != nil {
			d.stop()
			return out, fmt.Errorf("populating the working set: %w", err)
		}
		if st.bodies != nil {
			for id := range bodies {
				out.check(bytes.Equal(bodies[id], st.bodies[id]), "spec %d: cold body differs between set-ups", id)
			}
		}
		st.bodies = bodies
	}
	defer st.d.stop()

	var err error
	if p.trace {
		err = c.traced(p, &st, &out)
	} else {
		out.values["setup_s"] = median(setups)
		err = c.timed(p, &st, &out)
	}
	if err != nil {
		return out, err
	}
	return out, st.d.stop()
}

// drive runs the closed loop: each client sends its next request when the
// previous reply has arrived, until the deadline has passed and the sample
// floors are met (or the hard cap is reached). Client i follows request
// stream firstStream+i, so separate phases of one run never repeat a cold
// spec. after, when set, receives each reply on its client's goroutine
// before that client's next request, outside the timed interval.
func (c serveConfig) drive(st *serveRun, seed int64, firstStream, clients int, secs float64, floors bool, after func(sample)) ([]sample, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	hardCap := start.Add(time.Duration(c.maxSeconds * float64(time.Second)))
	var mu sync.Mutex
	var samples []sample
	var cold, hits int
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			s := newStream(c, seed, firstStream+cl)
			for {
				mu.Lock()
				short := floors && (cold < c.minCold || hits < c.minHits)
				mu.Unlock()
				now := time.Now()
				if now.After(hardCap) || (now.After(deadline) && !short) {
					return
				}
				id, isCold := s.next()
				r, err := st.d.post(c.requestBody(c.spec(seed, id)))
				if err != nil {
					errs[cl] = fmt.Errorf("spec %d: %w", id, err)
					return
				}
				smp := sample{reply: r, cold: isCold, id: id}
				mu.Lock()
				samples = append(samples, smp)
				if isCold {
					cold++
				} else {
					hits++
				}
				mu.Unlock()
				if after != nil {
					after(smp)
				}
			}
		}(cl)
	}
	wg.Wait()
	return samples, time.Since(start), errors.Join(errs...)
}

// checkSamples verifies every reply: a hit must be byte-identical to its
// spec's cold body and come from the memory or disk tier; a cold request
// must have been computed.
func (c serveConfig) checkSamples(st *serveRun, samples []sample, out *outcome) (coldMS, hitMS []float64) {
	tiers := map[string]int{}
	for _, s := range samples {
		if s.cold {
			out.check(s.tier == string(memo.Computed), "cold spec %d served from %q", s.id, s.tier)
			coldMS = append(coldMS, millis(s.lat))
			continue
		}
		tiers[s.tier]++
		out.check(s.tier == string(memo.FromMemory) || s.tier == string(memo.FromDisk),
			"hit on spec %d served from %q", s.id, s.tier)
		out.check(bytes.Equal(s.body, st.bodies[s.id]), "hit on spec %d: body differs from its cold body", s.id)
		hitMS = append(hitMS, millis(s.lat))
	}
	if c.minHits > 0 {
		// A stream long enough for the hit percentile is long enough to
		// reach both tiers.
		out.check(tiers[string(memo.FromMemory)] > 0 && tiers[string(memo.FromDisk)] > 0,
			"hits did not split between the memory and disk tiers: %v", tiers)
	}
	return coldMS, hitMS
}

// checkInProcess requires one served cold body to equal an in-process
// Synthesize+MarshalStable of the same request.
func (c serveConfig) checkInProcess(seed int64, samples []sample, out *outcome) {
	for _, s := range samples {
		if !s.cold {
			continue
		}
		spec, err := sf.ParseGenSpec(c.spec(seed, s.id))
		if err != nil {
			out.fail("parsing spec %d: %v", s.id, err)
			return
		}
		b, err := sf.GenerateBenchmark(spec)
		if err != nil {
			out.fail("generating spec %d: %v", s.id, err)
			return
		}
		res, err := sf.Synthesize(context.Background(), b.Graph3D, sf.WithFrequenciesMHz(c.freqs...))
		if err != nil {
			out.fail("in-process synthesis of spec %d: %v", s.id, err)
			return
		}
		body, err := res.MarshalStable()
		out.check(err == nil && bytes.Equal(body, s.body), "spec %d: served body differs from in-process Synthesize", s.id)
		return
	}
	out.fail("no cold request completed")
}

// bestMetrics returns the median best-point power and latency over the
// working set's results.
func (c serveConfig) bestMetrics(st *serveRun) (float64, float64, error) {
	var powers, lats []float64
	for id, b := range st.bodies {
		res, err := sf.ReadResult(bytes.NewReader(b))
		if err != nil {
			return 0, 0, fmt.Errorf("spec %d: %w", id, err)
		}
		if best := res.Best(); best != nil {
			powers = append(powers, best.Metrics.Power.TotalMW())
			lats = append(lats, best.Metrics.AvgLatencyCycles)
		}
	}
	if len(powers) == 0 {
		return 0, 0, errors.New("no working-set spec has a valid design point")
	}
	return median(powers), median(lats), nil
}

// timed runs the two-client closed loop for the measured time.
func (c serveConfig) timed(p params, st *serveRun, out *outcome) error {
	a0 := heapAllocs()
	samples, wall, err := c.drive(st, p.seed, 0, c.clients, p.seconds, true, nil)
	alloc := heapAllocs() - a0
	if err != nil {
		out.fail("request stream: %v", err)
	}
	coldMS, hitMS := c.checkSamples(st, samples, out)
	c.checkInProcess(p.seed, samples, out)
	coldP90, coldBeyond := percentile(coldMS, 0.90)
	hitP99, hitBeyond := percentile(hitMS, 0.99)
	if c.minCold > 0 || c.minHits > 0 {
		out.check(coldBeyond >= 10 && hitBeyond >= 10,
			"too few samples: %d cold beyond p90, %d hits beyond p99", coldBeyond, hitBeyond)
	}
	power, lat, err := c.bestMetrics(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: %d requests (%d cold, %d hits) in %.2fs; cold p50 %.2fms p90 %.2fms; hit p50 %.3fms p99 %.3fms\n",
		len(samples), len(coldMS), len(hitMS), seconds(wall), median(coldMS), coldP90, median(hitMS), hitP99)
	out.values["run_s"] = median(coldMS) / 1e3
	out.values["alloc_mb"] = mb(alloc) / float64(len(samples))
	out.values["ops_per_s"] = float64(len(samples)) / seconds(wall)
	out.values["best_power_mw"] = power
	out.values["best_latency_cyc"] = lat
	out.values["op_p50_ms"] = median(hitMS)
	out.values["op_tail_ms"] = hitP99
	return nil
}

// traced runs one client serially: first untraced for half the measured
// time, then traced, timing the service-path calls for each reply from the
// benchmark's own files, between requests: generation of a new design, the
// request fingerprint, the cache lookup of a hit and the stable marshalling
// of a cold result. Lookups go to a shadow cache of the daemon's sizing that
// receives the same bodies in the same order, so the daemon's own cache
// state is never disturbed.
func (c serveConfig) traced(p params, st *serveRun, out *outcome) error {
	for name := range perLayerUnits {
		out.values[name] = 0
	}
	untraced, _, err := c.drive(st, p.seed, 0, 1, p.seconds/2, false, nil)
	if err != nil {
		out.fail("untraced request stream: %v", err)
	}
	_, untracedHits := c.checkSamples(st, untraced, out)

	shadowDir, err := os.MkdirTemp(p.work, "serve-shadow-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(shadowDir)
	shadow, err := memo.New(shadowDir, c.memEntries)
	if err != nil {
		return err
	}
	tr := newTracer()
	opts := []sf.Option{sf.WithFrequenciesMHz(c.freqs...)}
	designs := make(map[int]*sf.Design)
	// key generates (once per spec) and fingerprints the design of spec id.
	key := func(id int) (string, time.Duration, error) {
		start := time.Now()
		d, ok := designs[id]
		if !ok {
			shape, err := workload.ParseShape(genShapes[id%len(genShapes)])
			if err != nil {
				return "", 0, err
			}
			gs := workload.Spec{Shape: shape, Cores: c.cores, Seed: p.seed<<24 + int64(id)}
			var b workload.Benchmark
			tr.do("workload", func() { b, err = workload.Generate(gs) })
			if err != nil {
				return "", 0, err
			}
			d = b.Graph3D
			designs[id] = d
		}
		var k string
		var err error
		tr.do("memo.key", func() { k, err = sf.Fingerprint(d, opts...) })
		return k, time.Since(start), err
	}
	for id, b := range st.bodies {
		k, _, err := key(id)
		if err != nil {
			return err
		}
		shadow.Put(k, b)
	}

	var lookupMem, lookupDisk, selfMS []float64
	var marshal, covered, hitTotal time.Duration
	var colds, hits, bodyBytes int
	var traceErr error
	after := func(s sample) {
		k, keyDur, err := key(s.id)
		if err != nil {
			traceErr = err
			return
		}
		out.check(s.key == k, "spec %d: daemon key %s, benchmark fingerprint %s", s.id, s.key, k)
		if s.cold {
			res, err := sf.ReadResult(bytes.NewReader(s.body))
			if err != nil {
				out.fail("cold spec %d: %v", s.id, err)
				return
			}
			var body []byte
			start := time.Now()
			tr.do("json", func() { body, err = res.MarshalStable() })
			marshal += time.Since(start)
			colds++
			out.check(err == nil && bytes.Equal(body, s.body), "cold spec %d: re-marshalled body differs", s.id)
			shadow.Put(k, s.body)
			return
		}
		var prov memo.Provenance
		var ok bool
		start := time.Now()
		tr.do("memo.lookup", func() { _, prov, ok = shadow.Lookup(k) })
		lk := time.Since(start)
		if !ok {
			out.fail("shadow cache lost spec %d", s.id)
			return
		}
		if prov == memo.FromMemory {
			lookupMem = append(lookupMem, millis(lk))
		} else {
			lookupDisk = append(lookupDisk, millis(lk))
		}
		hits++
		bodyBytes += len(s.body)
		covered += keyDur + lk
		hitTotal += s.lat
		selfMS = append(selfMS, millis(s.lat-keyDur-lk))
	}
	stats0 := st.d.srv.Cache().Stats()
	samples, _, err := c.drive(st, p.seed, 1, 1, p.seconds/2, false, after)
	stats1 := st.d.srv.Cache().Stats()
	if err != nil {
		out.fail("traced request stream: %v", err)
	}
	if traceErr != nil {
		return traceErr
	}
	_, hitMS := c.checkSamples(st, samples, out)
	if err := tr.write(filepath.Join(p.work, fmt.Sprintf("spans-serve-seed%d.jsonl", p.seed))); err != nil {
		return err
	}

	t := tr.totals()
	v := out.values
	if lt := t["workload"]; lt != nil {
		v["workload.gen_s"] = seconds(lt.self) / float64(lt.calls)
	}
	if lt := t["memo.key"]; lt != nil {
		v["memo.key_s"] = seconds(lt.self) / float64(lt.calls)
	}
	v["memo.lookup_mem_ms"] = median(lookupMem)
	v["memo.lookup_disk_ms"] = median(lookupDisk)
	if hits > 0 {
		v["memo.mem_hit_ratio"] = float64(stats1.MemHits-stats0.MemHits) / float64(hits)
		v["memo.disk_hit_ratio"] = float64(stats1.DiskHits-stats0.DiskHits) / float64(hits)
		v["json.bytes"] = float64(bodyBytes) / float64(hits)
		v["trace.coverage"] = float64(covered) / float64(hitTotal)
	}
	if colds > 0 {
		v["json.marshal_s"] = seconds(marshal) / float64(colds)
	}
	v["server.self_ms"] = median(selfMS)
	if u := median(untracedHits); u > 0 {
		v["trace.overhead"] = median(hitMS)/u - 1
	}
	return nil
}
