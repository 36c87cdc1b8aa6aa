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
//     installs a fresh epoch and drains in-flight old-epoch queries
//     before returning; queries never observe a torn epoch.
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

	// mu guards the epoch swap: queries take the read side just long
	// enough to register on the current epoch's in-flight group.
	mu sync.RWMutex
	st *epochState
}

// epochState is one serving epoch: its number and the in-flight count
// that a reload drains. Queries register on exactly one epoch for their
// whole lifetime; a reload swaps the state pointer and waits for the old
// epoch's group to drain.
type epochState struct {
	epoch    int64
	inflight sync.WaitGroup
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
		st:          &epochState{epoch: 1},
	}
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
func (s *Server) Epoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.epoch
}

// acquireState registers the caller on the current epoch. The returned
// state stays the caller's until it calls inflight.Done, even across a
// concurrent reload: the swap only installs a new epoch, and the reload
// returns once every query registered on the old one has finished.
func (s *Server) acquireState() *epochState {
	s.mu.RLock()
	st := s.st
	st.inflight.Add(1)
	s.mu.RUnlock()
	return st
}

// Reload installs a fresh epoch and returns it once all old-epoch
// queries have drained. The world itself is immutable for the server's
// lifetime.
func (s *Server) Reload() int64 {
	s.mu.Lock()
	old := s.st
	next := &epochState{epoch: old.epoch + 1}
	s.st = next
	s.mu.Unlock()
	// Drain: no new queries can register on old (the swap is done), so
	// Wait is a pure countdown.
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
