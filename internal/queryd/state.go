package queryd

import (
	"sync"

	"github.com/bgpsim/bgpsim/internal/core"
)

// epochState is one snapshot epoch: a bounded baseline cache, the
// admission window that decides which targets enter it, and the
// in-flight count that gates its release. Queries register on exactly
// one epoch for their whole lifetime; a reload swaps the state pointer
// and waits for the old epoch's group to drain before letting the old
// cache go.
type epochState struct {
	epoch    int64
	inflight sync.WaitGroup

	mu    sync.Mutex
	cap   int
	snaps map[int]*snapEntry
	// ring holds the cached targets in CLOCK order: hand is the next
	// eviction candidate, and an entry whose reference bit is set is
	// passed over once (the bit cleared) instead of evicted.
	ring []int
	hand int
	// seen is the admission window: bit i is set once node i has been
	// sighted as the target of a single-cell miss. sightings counts the
	// bits set; the window starts over at 8·cap of them, so "seen before"
	// means seen within the last few cachefuls of distinct targets, not
	// ever.
	seen      []uint64
	sightings int
}

// snapEntry is one target's cached baseline. The once gate makes
// concurrent first requests for a target build it exactly once; the
// losers wait for the builder instead of solving redundantly.
type snapEntry struct {
	once sync.Once
	snap *core.Snapshot
	err  error
	ref  bool // hit since the hand last passed; guarded by epochState.mu
}

// admission is what a lookup may do for a target that is not cached.
type admission int

const (
	// admitNever only consults the cache: detection workloads scatter
	// over targets and must not evict what point queries rely on.
	admitNever admission = iota
	// admitReturning caches the target if it was already sighted this
	// window, and otherwise only records the sighting: a single cell
	// cannot repay a baseline build, a target that comes back can.
	admitReturning
	// admitNow caches the target at once: the caller runs many cells
	// against it.
	admitNow
)

// newEpochState returns an empty epoch over n nodes.
func newEpochState(epoch int64, cap, n int) *epochState {
	return &epochState{
		epoch: epoch,
		cap:   cap,
		snaps: make(map[int]*snapEntry, cap),
		ring:  make([]int, 0, cap),
		seen:  make([]uint64, (n+63)/64),
	}
}

// lookup returns target's cache entry, or nil when it is not cached and
// how does not admit it. hit reports whether the entry already existed;
// evicted whether admitting it dropped another. Queries already holding
// an evicted entry keep using it; eviction only drops the cache's
// reference.
func (st *epochState) lookup(target int, how admission) (e *snapEntry, hit, evicted bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.snaps[target]; ok {
		e.ref = true
		return e, true, false
	}
	if how == admitNever || how == admitReturning && !st.sighted(target) {
		return nil, false, false
	}
	e = &snapEntry{}
	st.snaps[target] = e
	if len(st.ring) < st.cap {
		st.ring = append(st.ring, target)
		return e, false, false
	}
	for {
		victim := st.ring[st.hand]
		if ve := st.snaps[victim]; ve.ref {
			ve.ref = false
			st.hand = (st.hand + 1) % st.cap
			continue
		}
		delete(st.snaps, victim)
		st.ring[st.hand] = target
		st.hand = (st.hand + 1) % st.cap
		return e, false, true
	}
}

// sighted reports whether target was already sighted this window, and
// records the sighting if not. The 8·cap-th first sighting ends the
// window.
func (st *epochState) sighted(target int) bool {
	w, bit := target>>6, uint64(1)<<(target&63)
	if st.seen[w]&bit != 0 {
		return true
	}
	st.seen[w] |= bit
	if st.sightings++; st.sightings == 8*st.cap {
		clear(st.seen)
		st.sightings = 0
	}
	return false
}

// cached returns the number of cached baselines.
func (st *epochState) cached() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.snaps)
}
