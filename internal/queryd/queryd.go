// Package queryd is the hijackd serving layer: a long-running what-if
// query service over one loaded world. Where the batch scan tools
// (vulnscan, deployscan, detectscan) load a world per run, queryd loads
// it once and answers many small questions against it: an exact
// /v1/attack is one warm core.Solver run on the admitted worker's
// solver, and the multi-cell endpoints hand their cells to the same
// sweep runtime the scan tools use (hijack.SweepAll, detect.EvaluateAll
// at one worker), which batches same-target cells into lane solves.
//
// The serving contract (DESIGN.md §11):
//
//   - State is epoch-versioned. A reload (SIGHUP or POST /reload)
//     bumps the epoch; the world is immutable for the server's
//     lifetime, so an epoch carries no cached state and a query reports
//     the epoch current when it starts solving.
//   - Admission is bounded: at most Workers queries solve concurrently
//     and at most Backlog more wait. Beyond that the server sheds with a
//     counted 429 + Retry-After instead of queueing unboundedly. Request
//     bodies are capped at maxBodyBytes (413 beyond it).
//   - Two-tier answers: a query with "exact": false is answered by an
//     O(1) topological estimator (depth + degree position model);
//     "exact": true escalates to the solver tier. Every exact answer also carries
//     the estimate, so clients can calibrate the cheap tier.
//   - Answers are result-identical to the batch tools: the solver tier
//     runs the same measurement code (hijack.Measure, the sweep runtime,
//     detect's reducers) the scan tools do.
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
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// Config describes one serving instance.
type Config struct {
	// World is the loaded topology + policy the server answers over.
	World *experiments.World
	// Workers bounds concurrent queries on the solver tier; 0 means
	// GOMAXPROCS. Each worker owns one reusable core.Solver for exact
	// /v1/attack answers; a multi-cell query runs the sweep runtime at one
	// worker while it holds its slot.
	Workers int
	// Backlog is how many admitted queries may wait for a worker beyond
	// the Workers already solving; 0 means 2×Workers, negative means no
	// backlog at all. Requests beyond Workers+Backlog are shed with 429.
	Backlog int
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

	// epoch is the serving epoch, bumped by Reload.
	epoch atomic.Int64
}

// New builds a Server: workers and their solvers, the estimator's
// topological features, and the first epoch.
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
	clock := tick.Or(cfg.Clock)
	s := &Server{
		world:       cfg.World,
		totalWeight: cfg.World.Graph.TotalAddrWeight(),
		workers:     workers,
		clock:       clock,
		est:         newEstimator(cfg.World),
		met:         newMetrics(),
		started:     clock.Now(),
		pool:        make(chan *worker, workers),
		slots:       make(chan struct{}, workers+backlog),
	}
	s.epoch.Store(1)
	for i := 0; i < workers; i++ {
		s.pool <- &worker{solver: core.NewSolver(cfg.World.Policy)}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Epoch returns the current epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// Reload starts a fresh epoch and returns it. The world itself is
// immutable for the server's lifetime, so an epoch holds no state.
func (s *Server) Reload() int64 {
	epoch := s.epoch.Add(1)
	s.met.reloads.Add(1)
	return epoch
}

// Drain returns at once: an epoch holds no state, so there is nothing
// behind http.Server.Shutdown left to wait for. Shutdown, bounded by
// its context, is the drain; hijackd calls nothing else. Drain stays
// only because the benchmark harness (bench/hijackd.go) still calls it.
func (s *Server) Drain() {}

// worker is one solver lane: a core.Solver whose arenas are reused
// across every exact /v1/attack the lane serves.
type worker struct {
	solver *core.Solver
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
