// Package firehose replays MRT routing data — a TABLE_DUMP_V2 RIB dump
// as the baseline table plus a BGP4MP update stream — through the live
// feed stack: one ProbeRunner session per vantage peer (or a bounded
// pool of shared sessions), all streaming into one Collector. This is
// the repo's heavy-traffic path: real-format data, production-shaped
// concurrency, and robustness as the contract at every layer. Damaged
// input degrades to counted skips (mrt malformed budgets), a slow
// collector degrades to counted sheds (ProbeRunner MaxPending), an
// overloaded collector sheds its noisiest session (Collector MaxLoad),
// and a truncated file ends the replay cleanly after its intact prefix.
//
// Determinism: with per-peer sessions each alert-worthy announcement
// travels exactly one session in file order, so feed.AlertSetDigest over
// the resulting alerts is a pure function of the input bytes — under
// fault-injected transports too (see the chaos soak), because runners
// retransmit their full table on reconnect and the detector
// deduplicates. No wall clock is consulted: pacing and retry timing run
// on an injected tick.Clock.
package firehose

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// Config describes one replay.
type Config struct {
	// RIB, when non-nil, is a TABLE_DUMP_V2 snapshot loaded as the
	// baseline: every RIB entry is enqueued as an announcement from its
	// peer before the update stream starts.
	RIB io.Reader
	// Updates, when non-nil, is a BGP4MP update stream replayed in file
	// order.
	Updates io.Reader
	// Dial opens one transport connection to the collector per session
	// attempt. Required.
	Dial func() (io.ReadWriteCloser, error)
	// Sessions caps concurrent probe sessions. 0 means one session per
	// distinct peer AS; with a cap, peers are coalesced onto session
	// slots by first-appearance order (peer i → slot i mod Sessions),
	// and a slot speaks with the AS of its first peer.
	Sessions int
	// Speed scales replay pacing by the BGP4MP timestamps: 1.0 replays
	// in real time, 2.0 twice as fast, 0 at maximum speed (no pacing).
	Speed float64
	// MaxPending / LowPending bound each session's unsent queue (see
	// feed.ProbeRunner); 0 MaxPending means unbounded.
	MaxPending int
	LowPending int
	// MalformedBudget caps unknown-type and undecodable records per
	// input file; 0 means mrt.DefaultMalformedBudget, negative means
	// unlimited. RFC 6396 records the reader does not decode are
	// skipped without spending it.
	MalformedBudget int
	// MaxAttempts caps consecutive failed connect attempts per session;
	// 0 retries forever.
	MaxAttempts int
	// HoldTime is the hold time (seconds) each probe offers; 0 means
	// feed.DefaultHoldTime.
	HoldTime uint16
	// BackoffBase / BackoffMax bound reconnect delays; zero values take
	// the feed defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Stop, when non-nil, ends dispatch early when closed: the replay
	// stops at the next record boundary (interrupting any pacing wait)
	// and proceeds to its normal graceful drain. Context cancellation,
	// by contrast, cuts the drain short and force-closes transports.
	Stop <-chan struct{}
	// Clock injects time for pacing, backoff and drain polling; nil
	// means the wall clock.
	Clock tick.Clock
	// Logf, when non-nil, receives replay progress and degradation log
	// lines.
	Logf func(format string, args ...any)
}

// RunnerReport is one session slot's final accounting.
type RunnerReport struct {
	// AS is the slot's speaker AS (its first-assigned peer).
	AS asn.ASN
	// Stats is the slot runner's final counter snapshot.
	Stats feed.RunnerStats
}

// Stats summarizes one replay.
type Stats struct {
	// RIBRoutes counts baseline routes loaded from the RIB dump.
	RIBRoutes int
	// Peers counts distinct peer ASes seen across both inputs.
	Peers int
	// Sessions counts session slots used.
	Sessions int
	// Updates counts updates dispatched to session queues (baseline
	// routes included).
	Updates int
	// Skipped counts unknown, unsupported and malformed MRT records
	// skipped across both inputs.
	Skipped int
	// Truncated reports whether an input ended mid-record; the replay
	// covered its clean prefix.
	Truncated bool
	// Sent / Shed aggregate the per-session write and backpressure-drop
	// counters.
	Sent int
	Shed int
	// Writes aggregates the per-session transport Write calls;
	// Sent/Writes is updates per write syscall.
	Writes int
	// Runners holds each slot's final accounting, in slot order.
	Runners []RunnerReport
}

// Engine replays MRT data through probe sessions into a collector.
// Build with New; one Engine runs once.
type Engine struct {
	cfg   Config
	clock tick.Clock

	// mu guards runners, runErr and stats.
	mu      sync.Mutex
	runners []*feed.ProbeRunner
	runErr  error
	stats   Stats // the once-per-input and once-per-peer counters; see updates

	// updates and ribRoutes are Stats.Updates and Stats.RIBRoutes,
	// counted once per dispatched update without taking mu.
	updates, ribRoutes atomic.Int64
	// route is the engine's one peer → runner map. loadRIB and
	// replayUpdates run one after the other on Run's goroutine, the
	// only one that touches it, so it needs no lock: runnerFor and its
	// mutex run on a peer's first sight only.
	route map[asn.ASN]*feed.ProbeRunner

	wg sync.WaitGroup
}

// New builds an Engine over cfg.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:   cfg,
		clock: tick.Or(cfg.Clock),
		route: make(map[asn.ASN]*feed.ProbeRunner),
	}
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// bump applies one counter mutation under the engine mutex; the
// per-update counters are atomics instead.
func (e *Engine) bump(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

// Snapshot reports the replay's counters as of now: dispatch counters
// plus the session runners' live counters. Safe to call from any
// goroutine while Run is in flight — the progress feed for long replays
// and the probe point for backpressure tests.
func (e *Engine) Snapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Updates = int(e.updates.Load())
	s.RIBRoutes = int(e.ribRoutes.Load())
	s.Sessions = len(e.runners)
	for _, r := range e.runners {
		rs := r.Stats()
		s.Sent += rs.Sent
		s.Shed += rs.Shed
		s.Writes += rs.Writes
		s.Runners = append(s.Runners, RunnerReport{AS: r.AS, Stats: rs})
	}
	return s
}

// runnerFor returns the session runner for a peer seen for the first
// time, creating its slot (and starting its Run goroutine) unless the
// session cap coalesces it onto an existing one. Slot assignment is a
// pure function of first-appearance order, so replays are reproducible.
func (e *Engine) runnerFor(ctx context.Context, peer asn.ASN) *feed.ProbeRunner {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := e.stats.Peers
	e.stats.Peers++
	if n := e.cfg.Sessions; n > 0 && len(e.runners) >= n {
		return e.runners[seen%n]
	}
	r := &feed.ProbeRunner{
		AS:          peer,
		RouterID:    uint32(len(e.runners) + 1),
		Dial:        e.cfg.Dial,
		HoldTime:    e.cfg.HoldTime,
		BackoffBase: e.cfg.BackoffBase,
		BackoffMax:  e.cfg.BackoffMax,
		MaxAttempts: e.cfg.MaxAttempts,
		Clock:       e.clock,
		MaxPending:  e.cfg.MaxPending,
		LowPending:  e.cfg.LowPending,
		Logf:        e.cfg.Logf,
	}
	e.runners = append(e.runners, r)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		if err := r.Run(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			e.mu.Lock()
			if e.runErr == nil {
				e.runErr = fmt.Errorf("firehose: session %v: %w", peer, err)
			}
			e.mu.Unlock()
		}
	}()
	return r
}

// sessionFor returns peer's session runner from the route map, creating
// the slot on first sight.
func (e *Engine) sessionFor(ctx context.Context, peer asn.ASN) *feed.ProbeRunner {
	r := e.route[peer]
	if r == nil {
		r = e.runnerFor(ctx, peer)
		e.route[peer] = r
	}
	return r
}

// closed polls a channel that is closed to signal, without blocking; a
// nil channel never reads closed. The dispatch loops poll cfg.Stop and
// ctx.Done() (read once) per record: ctx.Err() would take the context's
// mutex on every call.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// reader builds an mrt.Reader with the configured malformed budget.
func (e *Engine) reader(r io.Reader) *mrt.Reader {
	mr := mrt.NewReader(r)
	if e.cfg.MalformedBudget != 0 {
		mr.SetMalformedBudget(e.cfg.MalformedBudget)
	}
	return mr
}

// loadRIB enqueues every baseline route from the RIB dump onto its
// peer's session, in file order. Records are read into reused storage
// and each route is built in one scratch UPDATE that Enqueue encodes at
// once, so the dispatcher keeps no per-route value.
func (e *Engine) loadRIB(ctx context.Context) error {
	mr := e.reader(e.cfg.RIB)
	defer func() { e.bump(func(s *Stats) { s.Skipped += mr.Skipped() }) }()
	var pit *mrt.PeerIndexTable
	var scratch mrt.Scratch
	var u bgpwire.Update
	var nlri [1]prefix.Prefix
	done := ctx.Done()
	for {
		if closed(done) {
			return ctx.Err()
		}
		if closed(e.cfg.Stop) {
			return nil
		}
		rec, _, err := mr.NextInto(&scratch)
		if err == io.EOF {
			return nil
		}
		if mrt.Skippable(err) {
			continue
		}
		if errors.Is(err, mrt.ErrTruncated) {
			e.bump(func(s *Stats) { s.Truncated = true })
			e.logf("firehose: RIB dump truncated after a clean %d-byte prefix; replaying what decoded", mr.Offset())
			return nil
		}
		if err != nil {
			return fmt.Errorf("firehose: RIB dump: %w", err)
		}
		switch v := rec.(type) {
		case *mrt.PeerIndexTable:
			pit = v
		case *mrt.RIBIPv4Unicast:
			if pit == nil {
				return fmt.Errorf("firehose: RIB record before peer index table")
			}
			for _, entry := range v.Entries {
				if int(entry.PeerIndex) >= len(pit.Peers) {
					return fmt.Errorf("firehose: RIB entry references peer %d of %d", entry.PeerIndex, len(pit.Peers))
				}
				peer := pit.Peers[entry.PeerIndex].AS
				nlri[0] = v.Prefix
				u = bgpwire.Update{Origin: entry.Origin, ASPath: entry.ASPath, NextHop: entry.NextHop, NLRI: nlri[:]}
				if err := e.sessionFor(ctx, peer).Enqueue(&u); err != nil {
					return fmt.Errorf("firehose: RIB route %v from peer %v: %w", v.Prefix, peer, err)
				}
				e.updates.Add(1)
				e.ribRoutes.Add(1)
			}
		}
	}
}

// replayUpdates streams the BGP4MP update log through the sessions,
// paced by record timestamps when Speed > 0. The reader checks each
// UPDATE without decoding it — enough to skip what would not decode,
// exactly as Next would — and its bytes go onto the session's table as
// read, with no re-encode; the collector decodes them once.
func (e *Engine) replayUpdates(ctx context.Context) error {
	mr := e.reader(e.cfg.Updates)
	defer func() { e.bump(func(s *Stats) { s.Skipped += mr.Skipped() }) }()
	var lastTS uint32
	first := true
	var scratch mrt.Scratch
	m := &scratch.BGP4MP
	done := ctx.Done()
	for {
		if closed(done) {
			return ctx.Err()
		}
		if closed(e.cfg.Stop) {
			return nil
		}
		_, msg, err := mr.NextInto(&scratch)
		if err == io.EOF {
			return nil
		}
		if mrt.Skippable(err) {
			continue
		}
		if errors.Is(err, mrt.ErrTruncated) {
			e.bump(func(s *Stats) { s.Truncated = true })
			e.logf("firehose: update stream truncated after a clean %d-byte prefix; replaying what decoded", mr.Offset())
			return nil
		}
		if err != nil {
			return fmt.Errorf("firehose: update stream: %w", err)
		}
		if msg == nil {
			// A RIB record mid-stream carries no replay event, and
			// OPENs/KEEPALIVEs in a capture are session noise.
			continue
		}
		if e.cfg.Speed > 0 && !first && m.Timestamp > lastTS {
			gap := time.Duration(float64(m.Timestamp-lastTS) * float64(time.Second) / e.cfg.Speed)
			t := e.clock.NewTimer(gap)
			select {
			case <-t.C():
			case <-e.cfg.Stop: // nil when unset: never selected
				t.Stop()
				return nil
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		lastTS = m.Timestamp
		first = false
		if err := e.sessionFor(ctx, m.PeerAS).EnqueueWire(msg); err != nil {
			return fmt.Errorf("firehose: update stream: %w", err)
		}
		e.updates.Add(1)
	}
}

// Run executes the replay: baseline RIB, then the update stream, then a
// graceful drain — every session finishes writing its table and closes
// with a Cease, so the collector has processed everything Run dispatched
// by the time it returns. On ctx cancellation or expiry the drain is cut
// short: each runner closes its own transport and returns, and the error
// is returned with whatever Stats had accumulated.
func (e *Engine) Run(ctx context.Context) (Stats, error) {
	if e.cfg.Dial == nil {
		return Stats{}, errors.New("firehose: Config.Dial is required")
	}
	dispatchErr := func() error {
		if e.cfg.RIB != nil {
			if err := e.loadRIB(ctx); err != nil {
				return err
			}
		}
		if e.cfg.Updates != nil {
			if err := e.replayUpdates(ctx); err != nil {
				return err
			}
		}
		return nil
	}()

	// Drain: every runner closes its session once its queue is written.
	e.mu.Lock()
	for _, r := range e.runners {
		r.CloseWhenDrained()
	}
	e.mu.Unlock()
	e.wg.Wait()

	stats := e.Snapshot()
	if dispatchErr == nil {
		dispatchErr = ctx.Err()
	}
	if dispatchErr == nil {
		e.mu.Lock()
		dispatchErr = e.runErr
		e.mu.Unlock()
	}
	return stats, dispatchErr
}
