package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/queryd"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// closedChunks is how many separately timed pieces the closed loop runs
// in; r1Windows is how many consecutive windows the open loop's p50 is
// taken over.
const (
	closedChunks = 8
	r1Windows    = 6
)

// latencyLimit is L: an open-loop request that is not answered 200
// within it counts as missed.
const latencyLimit = 50 * time.Millisecond

// hijackdMix describes one traffic mix and its phase sizes at the
// default seconds; phases scale with -seconds.
type hijackdMix struct {
	name          string
	zipf          bool    // Zipf(1.1) over the 512 most popular targets, else uniform over all nodes
	estimatorFrac float64 // share of queries that stop at the estimator tier
	kinds         bool    // 80/15/5 origin/forged-origin/route-leak, else origin only
	warm, closed  int
	r1QPS, r2QPS  float64
	r1N, r2N      int
	traceQueries  int // queries the traced stage loops replay
}

// r1 sits near 28% of the closed-loop capacity measured at the seed
// commit (about 720 and 370 responses/s), r2 at twice that; r1 runs for
// six of the default ten seconds, the closed loop for about three.
var (
	zipfMix    = hijackdMix{name: "hijackd_zipf", zipf: true, estimatorFrac: 0.2, kinds: true, warm: 300, closed: 2400, r1QPS: 200, r1N: 1200, r2QPS: 400, r2N: 800, traceQueries: 400}
	uniformMix = hijackdMix{name: "hijackd_uniform", warm: 100, closed: 1200, r1QPS: 100, r1N: 600, r2QPS: 200, r2N: 400, traceQueries: 150}
)

func runHijackdZipf(e *env) (*report, error)    { return runHijackd(e, zipfMix) }
func runHijackdUniform(e *env) (*report, error) { return runHijackd(e, uniformMix) }

// query is one pre-rendered POST /v1/attack.
type query struct {
	body     []byte
	at       core.Attack
	rov      []int
	exact    bool
	defended bool
}

// genQueries draws count queries of the mix from the -seed stream named
// for the phase. Which targets are popular is a property of the world,
// not of the seed: the Zipf ranks index a permutation drawn from
// worldSeed, so every seed stresses the same hot baselines and differs
// in the order, the attackers and the query classes. The defended half
// deploys ROV at the 50 highest-degree ASes.
func genQueries(e *env, w *experiments.World, mix hijackdMix, phase string, count int) ([]query, error) {
	rng := e.rng(mix.name + "-" + phase)
	n := w.Graph.N()
	hot := 512
	if hot > n {
		hot = n
	}
	popular := streamRng(worldSeed, "popular-targets").Perm(n)[:hot]
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(hot-1))
	top := 50
	if top > n/2 {
		top = n / 2
	}
	rov := topology.NodesByDegree(w.Graph)[:top]
	out := make([]query, count)
	for i := range out {
		q := &out[i]
		if mix.zipf {
			q.at.Target = popular[zipf.Uint64()]
		} else {
			q.at.Target = rng.Intn(n)
		}
		q.at.Attacker = rng.Intn(n - 1)
		if q.at.Attacker >= q.at.Target {
			q.at.Attacker++
		}
		q.exact = rng.Float64() >= mix.estimatorFrac
		q.defended = rng.Intn(2) == 1
		if mix.kinds {
			switch r := rng.Intn(100); {
			case r >= 95:
				q.at.Kind = core.KindRouteLeak
			case r >= 80:
				q.at.Kind = core.KindForgedOrigin
			}
		}
		req := queryd.AttackRequest{Target: q.at.Target, Attacker: q.at.Attacker, Kind: q.at.Kind.String(), Exact: q.exact}
		if q.defended {
			q.rov = rov
			req.Defense.ROV = rov
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		q.body = body
	}
	return out, nil
}

// defense is the query's deployed defense as the solver takes it.
func (q *query) defense(n int) core.Defense {
	if len(q.rov) == 0 {
		return core.Defense{}
	}
	set := asn.NewIndexSet(n)
	for _, i := range q.rov {
		set.Add(i)
	}
	return core.Defense{Blocked: set}
}

// hijackdServer is queryd behind a real http.Server on loopback.
type hijackdServer struct {
	srv  *queryd.Server
	http *http.Server
	url  string
	done chan error
}

// startHijackd serves w and returns once /healthz answers 200.
func startHijackd(w *experiments.World, workers int) (*hijackdServer, error) {
	srv, err := queryd.New(queryd.Config{World: w, Workers: workers})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &hijackdServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(l) }()
	for i := 0; ; i++ {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 200 {
			s.stop()
			return nil, fmt.Errorf("hijackd: /healthz not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the listener down, waits for the serve goroutine and for
// every admitted query.
func (s *hijackdServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	<-s.done
	s.srv.Drain()
}

// loadgen sends pre-rendered queries over at most `clients` keep-alive
// connections from `clients` goroutines.
type loadgen struct {
	client  *http.Client
	url     string
	clients int
	// sampleEvery is the verification stride: the body of every
	// sampleEvery-th exact response is kept for re-derivation.
	sampleEvery int
}

func newLoadgen(url string, clients, sampleEvery int) *loadgen {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr}, url: url + "/v1/attack", clients: clients, sampleEvery: sampleEvery}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// reply is what came back for one query.
type reply struct {
	status int
	lagMs  float64 // how late the request left, open loop only
	ms     float64 // latency: from send (closed loop) or from the due time (open loop)
	body   []byte  // kept only for sampled exact queries
}

// run sends qs. With qps > 0 it is an open loop: query i is due at
// start + i/qps whatever happened to earlier ones, and latency counts
// from the due time. With qps == 0 it is a closed loop: each client
// sends its next query when the previous reply arrives. It returns the
// replies and the wall time.
func (g *loadgen) run(qs []query, qps float64) ([]reply, time.Duration) {
	reqs := make([]*http.Request, len(qs))
	for i := range qs {
		// Built before the clock starts; a query is sent once.
		r, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(qs[i].body))
		if err != nil {
			panic(err) // the URL is the benchmark's own
		}
		r.Header.Set("Content-Type", "application/json")
		reqs[i] = r
	}
	out := make([]reply, len(qs))
	exactSeen := make([]int, len(qs)) // running count of exact queries, for sampling
	seen := 0
	for i := range qs {
		if qs[i].exact {
			seen++
		}
		exactSeen[i] = seen
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				from := time.Now()
				if qps > 0 {
					due := start.Add(time.Duration(float64(i) / qps * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					out[i].lagMs = float64(time.Since(due)) / 1e6
					from = due
				}
				resp, err := g.client.Do(reqs[i])
				if err != nil {
					out[i].ms = float64(time.Since(from)) / 1e6
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				out[i].ms = float64(time.Since(from)) / 1e6
				if err != nil {
					continue
				}
				out[i].status = resp.StatusCode
				if qs[i].exact && exactSeen[i]%g.sampleEvery == 0 {
					out[i].body = append([]byte(nil), buf.Bytes()...)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// phase is one load phase's summary.
type phase struct {
	n, ok, missed int
	wall          time.Duration
	ms, lagMs     []float64
}

func summarize(rs []reply, wall time.Duration) phase {
	p := phase{n: len(rs), wall: wall}
	for _, r := range rs {
		if r.status == http.StatusOK {
			p.ok++
		}
		if r.status != http.StatusOK || r.ms > float64(latencyLimit)/1e6 {
			p.missed++
		}
		p.ms = append(p.ms, r.ms)
		p.lagMs = append(p.lagMs, r.lagMs)
	}
	return p
}

// tailMs is the q-th quantile of ms when at least ten samples lie beyond
// it, else 0: a percentile the sample cannot support is not reported.
func tailMs(ms []float64, q float64) float64 {
	if float64(len(ms))*(1-q) < 10 {
		return 0
	}
	return quantile(ms, q)
}

// verifier re-derives sampled exact answers with a fresh solver.
type verifier struct {
	w       *experiments.World
	checked int
	bad     int
	first   string
	digest  bytes.Buffer
}

// verify checks the sampled replies of one phase; with pin set the
// re-derived answers also feed the digest golden.json pins.
func (v *verifier) verify(qs []query, rs []reply, pin bool) {
	for i := range rs {
		if rs[i].body == nil {
			continue
		}
		v.checked++
		var got queryd.AttackResponse
		if err := json.Unmarshal(rs[i].body, &got); err != nil || got.Pollution == nil || got.WeightFrac == nil {
			v.fail(fmt.Sprintf("query %d: undecodable exact response %q", i, rs[i].body))
			continue
		}
		q := &qs[i]
		o, err := core.NewSolver(v.w.Policy).SolveDefense(q.at, q.defense(v.w.Graph.N()))
		if err != nil {
			v.fail(fmt.Sprintf("query %d: reference solve: %v", i, err))
			continue
		}
		want := hijack.Measure(v.w.Graph, v.w.Graph.TotalAddrWeight(), o)
		if *got.Pollution != want.Pollution || *got.WeightFrac != want.WeightFrac || (got.Path != "delta" && got.Path != "full") {
			v.fail(fmt.Sprintf("query %d (target %d attacker %d): served %d/%v via %q, fresh solver says %d/%v",
				i, q.at.Target, q.at.Attacker, *got.Pollution, *got.WeightFrac, got.Path, want.Pollution, want.WeightFrac))
		}
		if pin {
			fmt.Fprintf(&v.digest, "%d %d %d %v\n", q.at.Target, q.at.Attacker, want.Pollution, want.WeightFrac)
		}
	}
}

func (v *verifier) fail(msg string) {
	v.bad++
	if v.first == "" {
		v.first = msg
	}
}

// runHijackd drives one mix. An untraced run spends its seconds on the
// two gated phases, the closed loop and the open loop at r1; a traced
// run halves the closed loop, keeps r1 whole for its tail percentiles,
// adds the second open-loop step r2 and then replays the stage loops.
func runHijackd(e *env, mix hijackdMix) (*report, error) {
	rep := newReport(mix.name)
	n := paperScale
	scale := e.seconds / defaultSeconds
	if e.quick {
		n, scale = 200, 0.02
		mix.traceQueries = 40
	}
	count := func(c int, share float64) int {
		if c = int(float64(c) * scale * share); c < 10 {
			c = 10
		}
		return c
	}
	closedShare := 1.0
	if e.trace {
		closedShare = 0.5
	}
	mix.warm, mix.closed, mix.r1N, mix.r2N = count(mix.warm, 1), count(mix.closed, closedShare), count(mix.r1N, 1), count(mix.r2N, 1)

	var w *experiments.World
	var hs *hijackdServer
	if e.trace {
		var err error
		if w, err = stagedWorld(n, rep); err != nil {
			return nil, err
		}
		if hs, err = startHijackd(w, e.nproc); err != nil {
			return nil, err
		}
	} else {
		s, reps, err := medianSetup(func() (err error) {
			if hs != nil {
				hs.stop()
			}
			if w, err = experiments.NewWorld(n, worldSeed); err != nil {
				return err
			}
			hs, err = startHijackd(w, e.nproc)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", s, reps)
	}
	defer hs.stop()

	sampleEvery := 50
	if e.quick {
		sampleEvery = 5
	}
	g := newLoadgen(hs.url, e.nproc, sampleEvery)
	defer g.close()
	v := &verifier{w: w}
	// runPhase sends one phase's queries, re-derives its sampled answers
	// and tallies its operations.
	runPhase := func(name string, count int, qps float64, pin bool) (phase, error) {
		qs, err := genQueries(e, w, mix, name, count)
		if err != nil {
			return phase{}, err
		}
		rs, wall := g.run(qs, qps)
		p := summarize(rs, wall)
		v.verify(qs, rs, pin)
		return p, nil
	}
	if _, err := runPhase("warm", mix.warm, 0, false); err != nil {
		return nil, err
	}
	// The closed loop runs as consecutive chunks and reports the median
	// chunk's rate, so a burst of interference from outside the process
	// costs one chunk, not the reading.
	var pc phase
	var chunkQPS []float64
	for c := 0; c < closedChunks; c++ {
		p, err := runPhase(fmt.Sprintf("closed-%d", c), (mix.closed+closedChunks-1)/closedChunks, 0, false)
		if err != nil {
			return nil, err
		}
		pc.n, pc.ok = pc.n+p.n, pc.ok+p.ok
		chunkQPS = append(chunkQPS, float64(p.ok)/p.wall.Seconds())
	}
	// r1 is the same in both modes, so its sampled answers are the digest.
	p1, err := runPhase("r1", mix.r1N, mix.r1QPS, true)
	if err != nil {
		return nil, err
	}
	measured := []phase{pc, p1}
	var p2 phase
	if e.trace {
		if p2, err = runPhase("r2", mix.r2N, mix.r2QPS, false); err != nil {
			return nil, err
		}
		measured = append(measured, p2)
	}
	sent, non200 := 0, 0
	for _, p := range measured {
		sent += p.n
		non200 += p.n - p.ok
	}
	rep.ops(sent, non200+v.bad)
	rep.check("every_response_200", non200 == 0, "%d of %d measured requests answered 200", sent-non200, sent)
	rep.check("exact_eq_fresh_solver", v.bad == 0 && v.checked > 0, "%d sampled exact responses (every %dth) re-derived with a fresh core.NewSolver + hijack.Measure %s", v.checked, sampleEvery, v.first)
	e.pin(rep, "r1_sampled_answers", hexDigest(v.digest.Bytes()))

	capacity := median(chunkQPS)
	// The open loop's p50 is likewise the median over consecutive windows
	// of each window's p50: requests are in due-time order, so a stall
	// outside the process moves one window.
	var windowP50 []float64
	for i := 0; i < r1Windows; i++ {
		lo, hi := i*p1.n/r1Windows, (i+1)*p1.n/r1Windows
		windowP50 = append(windowP50, quantile(append([]float64(nil), p1.ms[lo:hi]...), 0.50))
	}
	p50 := median(windowP50)
	rep.set("ops_per_s", capacity, pc.n)
	rep.set("latency_ms", p50, p1.n)
	rep.set("capacity_qps", capacity, pc.n)
	rep.set("p50_ms", p50, p1.n)
	rep.set("p95_ms", tailMs(p1.ms, 0.95), p1.n)
	rep.set("p99_ms", tailMs(p1.ms, 0.99), p1.n)
	rep.set("miss_frac", float64(p1.missed)/float64(p1.n), p1.n)
	e.logf("%s: closed loop %d clients x %d requests in %d chunks, responses/s per chunk (sorted) %.0f", mix.name, e.nproc, pc.n, closedChunks, chunkQPS)
	e.logf("%s: open loop r1 = %g qps x %d, timed from each request's due time, p50 ms per window (sorted) %.2f; latency limit %v; a percentile with fewer than 10 samples beyond it reads 0",
		mix.name, mix.r1QPS, p1.n, windowP50, latencyLimit)

	if e.trace {
		e.logf("%s: open loop r2 = %g qps x %d", mix.name, mix.r2QPS, p2.n)
		rep.set("queryd.r2.p50_ms", quantile(p2.ms, 0.50), p2.n)
		rep.set("queryd.r2.p99_ms", tailMs(p2.ms, 0.99), p2.n)
		rep.set("queryd.r2.miss_frac", float64(p2.missed)/float64(p2.n), p2.n)
		rep.set("queryd.loadgen.lag_ms_p99", quantile(append(p1.lagMs, p2.lagMs...), 0.99), p1.n+p2.n)
		m, err := serverMetrics(hs.srv.Handler())
		if err != nil {
			return nil, err
		}
		rep.set("queryd.snapshot.hit_frac", ratio(float64(m.Snapshots.Hits), float64(m.Snapshots.Hits+m.Snapshots.Misses)), int(m.Snapshots.Hits+m.Snapshots.Misses))
		rep.set("queryd.path.delta_frac", ratio(float64(m.Solves.Delta), float64(m.Solves.Delta+m.Solves.Full)), int(m.Solves.Delta+m.Solves.Full))
		qs, err := genQueries(e, w, mix, "trace", mix.traceQueries)
		if err != nil {
			return nil, err
		}
		if err := traceHijackd(e, rep, w, g, qs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ---- traced stage loops -----------------------------------------------

// serverCounters is the part of queryd's /metrics body the benchmark
// reads.
type serverCounters struct {
	Snapshots struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"snapshots"`
	Solves struct {
		Delta int64 `json:"delta"`
		Full  int64 `json:"full"`
	} `json:"solves"`
}

// sink is the smallest http.ResponseWriter: it keeps the status and the
// body and is reused across requests.
type sink struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func newSink() *sink                        { return &sink{h: make(http.Header), code: http.StatusOK} }
func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *sink) reset() {
	s.code = http.StatusOK
	s.buf.Reset()
	clear(s.h)
}

func serverMetrics(h http.Handler) (serverCounters, error) {
	var m serverCounters
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	out := newSink()
	h.ServeHTTP(out, req)
	if out.code != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", out.code)
	}
	return m, json.Unmarshal(out.buf.Bytes(), &m)
}

// handlerRequests pre-renders one in-process request per query.
func handlerRequests(qs []query) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(qs))
	for i := range qs {
		r, err := http.NewRequest(http.MethodPost, "/v1/attack", bytes.NewReader(qs[i].body))
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// fifoSnapshots mirrors queryd's per-epoch baseline cache — bounded,
// evicting in insertion order — so the staged loop sees the hit/miss
// pattern the handler sees on the same queries.
type fifoSnapshots struct {
	cap   int
	snaps map[int]*core.Snapshot
	order []int
}

func (c *fifoSnapshots) get(target int) *core.Snapshot { return c.snaps[target] }

func (c *fifoSnapshots) put(target int, s *core.Snapshot) {
	for len(c.snaps) >= c.cap && len(c.order) > 0 {
		delete(c.snaps, c.order[0])
		c.order = c.order[1:]
	}
	c.snaps[target] = s
	c.order = append(c.order, target)
}

// stagedQueries answers qs the way the /v1/attack handler does, as the
// driver's own single-goroutine loop over public functions: decode →
// snapshot lookup or build → SolveDelta → Measure → encode, a span
// around each. It returns the wall time and each exact query's pollution.
func stagedQueries(tr *tracer, w *experiments.World, qs []query) (time.Duration, []int, error) {
	pol, g := w.Policy, w.Graph
	n := g.N()
	total := g.TotalAddrWeight()
	full := core.NewSolver(pol)
	ds := core.NewDeltaSolver(pol)
	cache := &fifoSnapshots{cap: 64, snaps: make(map[int]*core.Snapshot)}
	pollution := make([]int, len(qs))
	var out bytes.Buffer
	t0 := time.Now()
	for i := range qs {
		op := tr.begin("queryd.query", i)
		sp := tr.begin("queryd.decode", i)
		var req queryd.AttackRequest
		dec := json.NewDecoder(bytes.NewReader(qs[i].body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		var kind core.AttackKind
		if err == nil {
			kind, err = core.ParseAttackKind(req.Kind)
		}
		var def core.Defense
		if len(req.Defense.ROV) > 0 {
			def.Blocked = asn.NewIndexSet(n)
			for _, node := range req.Defense.ROV {
				def.Blocked.Add(node)
			}
		}
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
		at := core.Attack{Target: req.Target, Attacker: req.Attacker, Kind: kind}
		resp := queryd.AttackResponse{Epoch: 1, Target: req.Target, Attacker: req.Attacker, Kind: kind.String(), Exact: req.Exact, Path: "estimate"}
		if req.Exact {
			snap := cache.get(req.Target)
			if snap == nil {
				sp = tr.begin("core.snapshot_build", i)
				snap, err = full.BuildSnapshot(req.Target)
				tr.end(sp)
				if err != nil {
					return 0, nil, err
				}
				cache.put(req.Target, snap)
			}
			sp = tr.begin("core.solve_delta", i)
			o, err := ds.SolveDelta(snap, at, def)
			tr.end(sp)
			if err != nil {
				return 0, nil, err
			}
			sp = tr.begin("hijack.measure", i)
			rec := hijack.Measure(g, total, o)
			tr.end(sp)
			resp.Pollution, resp.WeightFrac, resp.Path = &rec.Pollution, &rec.WeightFrac, "full"
			if o.UsedDelta() {
				resp.Path = "delta"
			}
			pollution[i] = rec.Pollution
		}
		sp = tr.begin("queryd.encode", i)
		out.Reset()
		err = json.NewEncoder(&out).Encode(resp)
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
		tr.end(op)
	}
	return time.Since(t0), pollution, nil
}

func traceHijackd(e *env, rep *report, w *experiments.World, g *loadgen, qs []query) error {
	// Transport floor: estimator-tier requests over loopback, one client.
	floor := make([]query, 200)
	for i := range floor {
		floor[i] = qs[i%len(qs)]
		req := queryd.AttackRequest{Target: floor[i].at.Target, Attacker: floor[i].at.Attacker}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		floor[i].body, floor[i].exact = body, false
	}
	one := &loadgen{client: g.client, url: g.url, clients: 1, sampleEvery: g.sampleEvery}
	rs, _ := one.run(floor, 0)
	var floorUs []float64
	for _, r := range rs {
		if r.status == http.StatusOK {
			floorUs = append(floorUs, 1e3*r.ms)
		}
	}
	rep.set("queryd.http_floor.us_p50", quantile(floorUs, 0.50), len(floorUs))

	// The reference is the handler on a cold server, in process, one
	// request at a time.
	cold := func() (http.Handler, error) {
		s, err := queryd.New(queryd.Config{World: w, Workers: 1})
		if err != nil {
			return nil, err
		}
		return s.Handler(), nil
	}
	out := newSink()
	served := make([]int, len(qs)) // pollution per exact query, as served
	// Response bodies are copied into buffers sized beforehand and decoded
	// after the loop, so the loop's allocations are the handler's.
	bodies := make([][]byte, len(qs))
	for i := range bodies {
		bodies[i] = make([]byte, 0, 1024)
	}
	bad := 0
	var allocsPerQuery []float64
	ref := func() (time.Duration, error) {
		reqs, err := handlerRequests(qs)
		if err != nil {
			return 0, err
		}
		h, err := cold()
		if err != nil {
			return 0, err
		}
		var wall time.Duration
		allocs, _ := memDelta(func() {
			t0 := time.Now()
			for i, r := range reqs {
				out.reset()
				h.ServeHTTP(out, r)
				bodies[i] = bodies[i][:0]
				if out.code == http.StatusOK {
					bodies[i] = append(bodies[i], out.buf.Bytes()...)
				}
			}
			wall = time.Since(t0)
		})
		allocsPerQuery = append(allocsPerQuery, allocs/float64(len(reqs)))
		for i := range qs {
			var resp queryd.AttackResponse
			if json.Unmarshal(bodies[i], &resp) != nil || (qs[i].exact && resp.Pollution == nil) {
				bad++
				continue
			}
			if qs[i].exact {
				served[i] = *resp.Pollution
			}
		}
		return wall, nil
	}
	// staged is the same queries through the driver's stage loop.
	staged := func(tr *tracer) (time.Duration, error) {
		wall, got, err := stagedQueries(tr, w, qs)
		if err != nil {
			return 0, err
		}
		for i := range qs {
			if qs[i].exact && got[i] != served[i] {
				bad++
			}
		}
		return wall, nil
	}
	rounds, err := e.stagedTrace(rep, len(qs), ref, staged)
	if err != nil {
		return err
	}
	layers := rounds[len(rounds)-1].layers
	rep.ops(len(qs), bad)
	rep.check("staged_eq_handler", bad == 0, "staged loop and in-process handler agree on pollution for %d queries in every round", len(qs))
	rep.set("queryd.allocs_per_query", median(allocsPerQuery), len(qs))
	p50 := func(name string) (float64, int) {
		if lt := layers[name]; lt != nil {
			return quantile(lt.durUs, 0.50), len(lt.durUs)
		}
		return 0, 0
	}
	v, k := p50("core.snapshot_build")
	rep.set("core.snapshot_build.us_p50", v, k)
	v, k = p50("hijack.measure")
	rep.set("hijack.measure.us_p50", v, k)

	// Once more on a cold server with /metrics read between requests, to
	// class each request by tier and by snapshot hit or miss.
	reqs, err := handlerRequests(qs)
	if err != nil {
		return err
	}
	h, err := cold()
	if err != nil {
		return err
	}
	var estUs, hitUs, missUs []float64
	before, err := serverMetrics(h)
	if err != nil {
		return err
	}
	for i, r := range reqs {
		out.reset()
		t0 := time.Now()
		h.ServeHTTP(out, r)
		us := float64(time.Since(t0)) / 1e3
		after, err := serverMetrics(h)
		if err != nil {
			return err
		}
		switch {
		case !qs[i].exact:
			estUs = append(estUs, us)
		case after.Snapshots.Misses > before.Snapshots.Misses:
			missUs = append(missUs, us)
		default:
			hitUs = append(hitUs, us)
		}
		before = after
	}
	rep.set("queryd.estimate.us_p50", quantile(estUs, 0.50), len(estUs))
	rep.set("queryd.exact_hit.us_p50", quantile(hitUs, 0.50), len(hitUs))
	rep.set("queryd.exact_miss.us_p50", quantile(missUs, 0.50), len(missUs))

	return traceDeltaVsFull(rep, w, qs)
}

// traceDeltaVsFull times SolveDelta on warm snapshots against a reused
// full Solver on the same exact queries, in the same run, split by
// whether the query deploys a defense.
func traceDeltaVsFull(rep *report, w *experiments.World, qs []query) error {
	n := w.Graph.N()
	var exact []*query
	for i := range qs {
		if qs[i].exact && len(exact) < 150 {
			exact = append(exact, &qs[i])
		}
	}
	full := core.NewSolver(w.Policy)
	ds := core.NewDeltaSolver(w.Policy)
	snaps := make(map[int]*core.Snapshot)
	defs := make([]core.Defense, len(exact))
	for i, q := range exact {
		defs[i] = q.defense(n)
		if snaps[q.at.Target] == nil {
			s, err := full.BuildSnapshot(q.at.Target)
			if err != nil {
				return err
			}
			snaps[q.at.Target] = s
		}
	}
	var deltaUs, fullUs [2][]float64 // [0] undefended, [1] defended
	var allUs []float64
	before := ds.Stats()
	for i, q := range exact {
		class := 0
		if q.defended {
			class = 1
		}
		t0 := time.Now()
		do, err := ds.SolveDelta(snaps[q.at.Target], q.at, defs[i])
		us := float64(time.Since(t0)) / 1e3
		if err != nil {
			return err
		}
		deltaPolluted := do.PollutedCount()
		deltaUs[class] = append(deltaUs[class], us)
		allUs = append(allUs, us)
		t0 = time.Now()
		fo, err := full.SolveDefense(q.at, defs[i])
		fullUs[class] = append(fullUs[class], float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		if fo.PollutedCount() != deltaPolluted {
			return fmt.Errorf("delta and full solve disagree on target %d attacker %d", q.at.Target, q.at.Attacker)
		}
	}
	after := ds.Stats()
	ops := float64(len(exact))
	rep.set("core.solve_delta.us_p50", quantile(allUs, 0.50), len(allUs))
	rep.set("core.solve_delta.us_p99", quantile(allUs, 0.99), len(allUs))
	rep.set("core.solve_delta.examined_per_op", float64(after.Examined-before.Examined)/ops, len(exact))
	rep.set("core.solve_delta.fallback_frac", float64(after.FullFallbacks-before.FullFallbacks)/ops, len(exact))
	rep.set("core.delta_vs_full.ratio_undefended", ratio(median(deltaUs[0]), median(fullUs[0])), len(deltaUs[0]))
	rep.set("core.delta_vs_full.ratio_defended", ratio(median(deltaUs[1]), median(fullUs[1])), len(deltaUs[1]))
	both := append(append([]float64(nil), fullUs[0]...), fullUs[1]...)
	rep.set("core.solve_full.us_p50", quantile(both, 0.50), len(both))
	rep.set("core.solve_full.us_p99", quantile(both, 0.99), len(both))

	var loopErr error
	allocs, _ := memDelta(func() {
		for i, q := range exact {
			if _, err := ds.SolveDelta(snaps[q.at.Target], q.at, defs[i]); err != nil {
				loopErr = err
			}
		}
	})
	rep.set("core.solve_delta.allocs_per_op", allocs/ops, len(exact))
	fa, fb := memDelta(func() {
		for i, q := range exact {
			if _, err := full.SolveDefense(q.at, defs[i]); err != nil {
				loopErr = err
			}
		}
	})
	rep.set("core.solve_full.allocs_per_op", fa/ops, len(exact))
	rep.set("core.solve_full.bytes_per_op", fb/ops, len(exact))
	return loopErr
}
