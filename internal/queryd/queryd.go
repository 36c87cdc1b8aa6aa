// Package queryd is the hijackd serving layer: a long-running what-if
// query service over one loaded world. Where the batch scan tools
// (vulnscan, deployscan, detectscan) re-solve every cell from scratch,
// queryd keeps converged baseline RIB snapshots (core.Snapshot, one per
// target, valid under every defense config) for the targets queries
// return to, and answers a cell against one with core.SolveDelta: a
// repair that revisits only the ASes whose best route the attacker can
// change where a deployed defense confines it, a warm full solve where
// nothing does. A target sighted once is answered by one warm
// core.Solver run and builds nothing.
//
// The serving contract (DESIGN.md §11):
//
//   - Snapshots are epoch-versioned. A reload (SIGHUP or POST /reload)
//     installs a fresh epoch and drains in-flight old-epoch queries
//     before the old cache is released; queries never observe a torn
//     epoch.
//   - Admission is bounded: at most Workers queries solve concurrently
//     and at most Backlog more wait. Beyond that the server sheds with a
//     counted 429 + Retry-After instead of queueing unboundedly.
//   - Two-tier answers: a query with "exact": false is answered by an
//     O(1) topological estimator (depth + degree position model);
//     "exact": true escalates to the solver tier. Every exact answer also carries
//     the estimate, so clients can calibrate the cheap tier.
//   - Answers are result-identical to the batch tools: the solver tier
//     feeds the same measurement code (hijack.Measure,
//     detect.MeasureRecord) through the core.OutcomeView seam, and the
//     delta path is pinned equal to a full solve in internal/core.
//
// queryd is a wall-clock serving boundary, registered in lint.Exempt:
// it computes no figure data itself — every result value comes from the
// deterministic core/hijack/detect/deploy layers it wraps. Time enters
// only through a tick.Clock (latency metrics, uptime), so tests can
// drive it deterministically.
package queryd

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// Config describes one serving instance.
type Config struct {
	// World is the loaded topology + policy the server answers over.
	World *experiments.World
	// Workers bounds concurrent solves; 0 means GOMAXPROCS. Each worker
	// owns a reusable DeltaSolver (the sweep runtime's per-worker arena
	// reuse, kept alive across queries).
	Workers int
	// Backlog is how many admitted queries may wait for a worker beyond
	// the Workers already solving; 0 means 2×Workers, negative means no
	// backlog at all. Requests beyond Workers+Backlog are shed with 429.
	Backlog int
	// SnapshotCap bounds the per-epoch baseline cache (snapshots are
	// ~7 bytes/node each); 0 means 64.
	SnapshotCap int
	// Clock supplies time for latency metrics and uptime; nil means the
	// wall clock.
	Clock tick.Clock
}

// Server answers what-if queries over one world. Create with New; it is
// safe for concurrent use.
type Server struct {
	world       *experiments.World
	totalWeight int64
	workers     int
	snapCap     int
	clock       tick.Clock
	est         *estimator
	mux         *http.ServeMux
	met         *metrics
	started     time.Time

	// pool holds the idle solver workers; slots is the admission bound
	// (capacity Workers+Backlog): a request that cannot take a slot
	// without blocking is shed.
	pool  chan *worker
	slots chan struct{}

	// mu guards the epoch swap: queries take the read side just long
	// enough to register on the current epoch's in-flight group.
	mu sync.RWMutex
	st *epochState
}

// New builds a Server: workers and their solvers, the estimator's
// topological features, and the first snapshot epoch.
func New(cfg Config) (*Server, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("queryd: config needs a World")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	backlog := cfg.Backlog
	if backlog == 0 {
		backlog = 2 * workers
	} else if backlog < 0 {
		backlog = 0
	}
	snapCap := cfg.SnapshotCap
	if snapCap <= 0 {
		snapCap = 64
	}
	clock := tick.Or(cfg.Clock)
	s := &Server{
		world:       cfg.World,
		totalWeight: cfg.World.Graph.TotalAddrWeight(),
		workers:     workers,
		snapCap:     snapCap,
		clock:       clock,
		est:         newEstimator(cfg.World),
		met:         newMetrics(),
		started:     clock.Now(),
		pool:        make(chan *worker, workers),
		slots:       make(chan struct{}, workers+backlog),
		st:          newEpochState(1, snapCap, cfg.World.Policy.N()),
	}
	for i := 0; i < workers; i++ {
		s.pool <- &worker{ds: core.NewDeltaSolver(cfg.World.Policy)}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Epoch returns the current snapshot epoch.
func (s *Server) Epoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.epoch
}

// acquireState registers the caller on the current epoch. The returned
// state stays fully usable until release, even across a concurrent
// reload: the swap only drops the *new* epoch's reference, and the old
// cache is not released until every registered query has finished.
func (s *Server) acquireState() *epochState {
	s.mu.RLock()
	st := s.st
	st.inflight.Add(1)
	s.mu.RUnlock()
	return st
}

// Reload installs a fresh snapshot epoch — dropping every cached
// baseline and starting a clean admission window — and returns the new
// epoch once all old-epoch queries have drained. The world itself is immutable for the server's lifetime;
// reload re-derives the state built from it.
func (s *Server) Reload() int64 {
	s.mu.Lock()
	old := s.st
	next := newEpochState(old.epoch+1, s.snapCap, s.world.Policy.N())
	s.st = next
	s.mu.Unlock()
	// Drain: no new queries can register on old (the swap is done), so
	// Wait is a pure countdown. Only then is the old cache released to
	// the collector.
	old.inflight.Wait()
	s.met.reloads.Add(1)
	return next.epoch
}

// Drain blocks until every query admitted before the call has finished.
// The SIGTERM path runs http.Server.Shutdown (which stops intake and
// waits for handlers) and then Drain as a belt-and-braces barrier.
func (s *Server) Drain() {
	s.mu.RLock()
	st := s.st
	s.mu.RUnlock()
	st.inflight.Wait()
}

// worker is one solver lane: a DeltaSolver, reused across every query
// the lane serves. Cells without a snapshot, and snapshot builds, run on
// the full solver the DeltaSolver falls back to.
type worker struct {
	ds *core.DeltaSolver
}

// admit tries to take an admission slot (non-blocking) and then a
// worker (blocking, bounded by the slot count). ok=false means the
// request must be shed.
func (s *Server) admit() (*worker, bool) {
	select {
	case s.slots <- struct{}{}:
	default:
		return nil, false
	}
	return <-s.pool, true
}

// release returns the worker to the pool and frees the admission slot.
func (s *Server) release(wk *worker) {
	s.pool <- wk
	<-s.slots
}

// How a query came by its baseline, as exact /v1/attack answers report
// it.
const (
	snapshotHit   = "hit"   // the baseline was cached
	snapshotBuilt = "built" // the query admitted the target and built it
	snapshotMiss  = "miss"  // no baseline: the cell is a warm full solve
)

// snapshotFor returns the cached baseline for target. When it is not
// cached, how decides whether to build (and cache) it on this worker;
// otherwise the snapshot is nil and the caller's cells are full solves.
func (s *Server) snapshotFor(st *epochState, wk *worker, target int, how admission) (snap *core.Snapshot, use string, err error) {
	e, hit, evicted := st.lookup(target, how)
	if evicted {
		s.met.snapEvictions.Add(1)
	}
	use = snapshotBuilt
	if hit {
		s.met.snapHits.Add(1)
		use = snapshotHit
	} else {
		s.met.snapMisses.Add(1)
	}
	if e == nil {
		return nil, snapshotMiss, nil
	}
	e.once.Do(func() {
		e.snap, e.err = wk.ds.Solver().BuildSnapshot(target)
		s.met.snapBuilds.Add(1)
	})
	return e.snap, use, e.err
}

// solveCell answers one (attack, defense) cell: SolveDelta against snap
// when there is one, a full solve otherwise. The returned view is
// transient — it belongs to the worker and is only valid until its next
// solve.
func (wk *worker) solveCell(s *Server, snap *core.Snapshot, at core.Attack, def core.Defense) (core.OutcomeView, error) {
	if snap == nil {
		o, err := wk.ds.Solver().SolveDefense(at, def)
		if err != nil {
			return nil, err
		}
		s.met.fullSolves.Add(1)
		return o, nil
	}
	o, err := wk.ds.SolveDelta(snap, at, def)
	if err != nil {
		return nil, err
	}
	if o.UsedDelta() {
		s.met.deltaSolves.Add(1)
		return o, nil
	}
	s.met.fullSolves.Add(1)
	if o.Examined() > 0 {
		s.met.bailedSolves.Add(1)
	}
	return o, nil
}
