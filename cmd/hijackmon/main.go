// Command hijackmon is a live IP-hijack detection daemon: it runs a BGP
// route collector (the BGPmon role) with an origin-validating detector
// behind it (the PHAS/ROVER role). Probe routers open ordinary BGP
// sessions to it; every announced (prefix, origin) is validated against
// the configured route-origin data and violations print alerts.
//
// With -demo it additionally simulates a hijack and streams the probe
// feeds at itself — each probe driven by a reconnecting session runner —
// demonstrating the full pipeline in one process.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// sessions drain (up to -drain, then are force-closed), and the MRT
// recorder is flushed — a flush failure exits non-zero, because a
// silently truncated recording is worse than a loud one.
//
// Usage:
//
//	hijackmon -listen 127.0.0.1:1790 -roa roas.txt -record updates.mrt
//	hijackmon -demo
//
// The -roa file holds one "prefix maxlen origin" triple per line, e.g.
//
//	129.82.0.0/16 24 AS12145
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hijackmon:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("hijackmon", flag.ExitOnError)
	wf := cli.AddWorldFlags(fs)
	listen := fs.String("listen", "127.0.0.1:1790", "collector listen address")
	roaFile := fs.String("roa", "", "ROA file: 'prefix maxlen origin' per line")
	demo := fs.Bool("demo", false, "simulate a hijack and stream its probe feeds at this daemon")
	record := fs.String("record", "", "log every received UPDATE to this MRT file (BGP4MP records)")
	hold := fs.Uint("hold", uint(feed.DefaultHoldTime), "hold time offered in OPEN, in seconds (RFC 4271 minimum 3)")
	reconnect := fs.Duration("reconnect", feed.DefaultBackoffBase, "demo probes: reconnect backoff base (doubles per failure, capped)")
	drain := fs.Duration("drain", 5*time.Second, "graceful shutdown: how long sessions may drain before being force-closed")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	switch {
	case *hold > 65535:
		return fmt.Errorf("-hold %d does not fit the OPEN message's 16-bit field", *hold)
	case *hold < 3:
		// 0 would disable liveness detection entirely (and this collector
		// treats a zero field as "use the default"), so the daemon insists
		// on the RFC 4271 §6.2 floor.
		return fmt.Errorf("-hold %d is below the RFC 4271 floor of 3 seconds", *hold)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hijackmon: "+format+"\n", args...)
	}

	var store rpki.Store
	det := feed.NewDetector(&store, func(a feed.Alert) {
		fmt.Printf("ALERT [%s] t=%d peer=%v prefix=%v origin=%v path=%v\n",
			a.Reason, a.Time, a.PeerAS, a.Prefix, a.Origin, a.Path)
	})
	if *roaFile != "" {
		n, err := loadROAs(&store, det, *roaFile)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d ROAs from %s\n", n, *roaFile)
	}

	// The demo's world and its victim's ROA are in place before the
	// collector listens: sessions validate with no lock around the
	// store, so it must not be written once a peer can connect.
	var w *experiments.World
	var target int
	victimPrefix := prefix.MustParse("129.82.0.0/16")
	if *demo {
		var err error
		if w, err = wf.BuildWorld(); err != nil {
			return err
		}
		cli.Describe(w)
		if target, err = topology.FindTarget(w.Graph, w.Class, topology.TargetQuery{Depth: 2, Stub: true}); err != nil {
			return err
		}
		if err := store.Add(rpki.ROA{Prefix: victimPrefix, MaxLength: 24, Origin: w.Graph.ASN(target)}); err != nil {
			return err
		}
		det.NotePublished(victimPrefix)
	}

	collector := &feed.Collector{
		LocalAS: 65535, RouterID: 0x7f000001, Detector: det,
		HoldTime: uint16(*hold),
		Logf:     logf,
	}
	// flushRecorder settles the MRT file at shutdown. Its error is the
	// process exit status: losing buffered records must be loud.
	var flushRecorder func() error
	if *record != "" {
		fh, err := os.Create(*record)
		if err != nil {
			return err
		}
		w := mrt.NewWriter(fh, 0)
		collector.Recorder = w
		flushRecorder = func() error {
			if err := w.Flush(); err != nil {
				_ = fh.Close()
				return fmt.Errorf("flush MRT recording %s: %w", *record, err)
			}
			if err := fh.Close(); err != nil {
				return fmt.Errorf("close MRT recording %s: %w", *record, err)
			}
			return nil
		}
		fmt.Printf("recording updates to %s (MRT BGP4MP)\n", *record)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("collector listening on %s (hold %ds)\n", l.Addr(), *hold)

	serveErr := make(chan error, 1)
	go func() { serveErr <- collector.Serve(l) }()

	// shutdown drains the collector (force-closing leftovers after
	// -drain), reports its robustness counters, and settles the recorder.
	// Callers must close the listener first and reap serveErr after.
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := collector.Shutdown(ctx)
		st := collector.Stats()
		fmt.Printf("collector: %d sessions, %d malformed messages, %d hold expiries\n",
			st.Sessions, st.MalformedMessages, st.HoldExpiries)
		if st.Degraded {
			logf("recording DEGRADED: %d write errors, %d updates dropped", st.RecorderErrors, st.RecorderDropped)
		}
		if err != nil {
			logf("drain timeout after %v: force-closed remaining sessions", *drain)
		}
		if flushRecorder != nil {
			return flushRecorder()
		}
		return nil
	}

	if !*demo {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case s := <-sig:
			fmt.Printf("received %v; shutting down\n", s)
			// Order matters: stop accepting, then drain/force-close (which
			// unblocks Serve's session wait), then reap Serve itself.
			if err := l.Close(); err != nil {
				logf("close listener: %v", err)
			}
			err := shutdown()
			<-serveErr
			return err
		case err := <-serveErr:
			// The listener died under us; still drain and settle the recorder.
			if serr := shutdown(); serr != nil {
				return serr
			}
			return err
		}
	}

	// Demo: simulate a hijack against the published victim and stream it.
	attacker := w.Class.Tier1[0]
	s := w.Policy.AcquireSolver()
	defer w.Policy.ReleaseSolver(s)
	o, err := s.Solve(core.Attack{Target: target, Attacker: attacker}, nil)
	if err != nil {
		return err
	}
	probes := detect.TopDegreeProbes(w.Graph, 24).Probes
	updates, err := feed.FromOutcome(w.Graph, o, victimPrefix, prefix.Prefix{}, probes)
	if err != nil {
		return err
	}
	fmt.Printf("demo: %v hijacks %v; streaming %d probe feeds\n",
		w.Graph.ASN(attacker), w.Graph.ASN(target), len(updates))

	// One reconnecting session runner per probe AS, feeding that probe's
	// updates in time order and healing transient connection failures.
	byPeer := make(map[asn.ASN][]*bgpwire.Update)
	var order []asn.ASN
	for _, tu := range updates {
		if _, ok := byPeer[tu.PeerAS]; !ok {
			order = append(order, tu.PeerAS)
		}
		byPeer[tu.PeerAS] = append(byPeer[tu.PeerAS], tu.Update)
	}
	runners := make([]*feed.ProbeRunner, len(order))
	for i, peer := range order {
		r := &feed.ProbeRunner{
			AS: peer, RouterID: peer.Uint32(),
			HoldTime:    uint16(*hold),
			BackoffBase: *reconnect,
			MaxAttempts: 8,
			Jitter:      rand.New(rand.NewSource(*wf.Seed + int64(i))),
			Dial: func() (io.ReadWriteCloser, error) {
				return net.DialTimeout("tcp", l.Addr().String(), 10*time.Second)
			},
			Logf: logf,
		}
		for _, u := range byPeer[peer] {
			if err := r.Enqueue(u); err != nil {
				return err
			}
		}
		runners[i] = r
	}
	var wg sync.WaitGroup
	runErrs := make(chan error, len(runners))
	for _, r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := r.RunDrain(ctx); err != nil {
				runErrs <- fmt.Errorf("probe %v: %w", r.AS, err)
			}
		}()
	}
	wg.Wait()
	close(runErrs)
	for err := range runErrs {
		logf("%v", err)
	}
	if err := l.Close(); err != nil {
		return err
	}
	err = shutdown()
	<-serveErr
	if err != nil {
		return err
	}
	fmt.Printf("demo complete: %d sessions, %d alert(s)\n", collector.Sessions(), len(det.Alerts()))
	return nil
}

// loadROAs reads a "prefix maxlen origin" file into the store and
// registers every prefix with the detector (see rpki.LoadROAs).
func loadROAs(store *rpki.Store, det *feed.Detector, path string) (int, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	return rpki.LoadROAs(store, fh, path, det.NotePublished)
}
