// Command mrtreplay replays MRT routing data — a TABLE_DUMP_V2 RIB dump
// as the baseline table and/or a BGP4MP update stream — through
// concurrent BGP probe sessions into a collector, as if the capture were
// arriving live. By default it runs its own collector with a
// route-server validator and an origin-hijack detector behind it,
// printing every alert plus the alert-set digest (the reproducibility
// handle CI pins fixtures with); with -connect it feeds an external
// collector such as a running hijackmon instead.
//
// Damaged input is survived, not trusted: unknown and undecodable MRT
// records are skipped against a per-file budget, and a truncated file
// replays its intact prefix. A slow collector is survived too — each
// session bounds its unsent queue and sheds the oldest updates past
// -max-pending, with every shed counted in the final stats.
//
// The first SIGINT stops dispatch at the next record and drains: every
// session finishes writing what it holds and closes with a Cease. A
// second SIGINT force-closes the transports.
//
// Usage:
//
//	mrtreplay -rib rib.mrt -updates updates.mrt -roas roas.txt
//	mrtreplay -updates updates.mrt -speed 60 -connect 127.0.0.1:1790
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mrtreplay:", err)
		os.Exit(1)
	}
}

// stopReader serves its reader until stop closes, then reports EOF —
// how the first SIGINT turns into a graceful end-of-input instead of a
// torn-down replay.
type stopReader struct {
	r    io.Reader
	stop <-chan struct{}
}

func (s *stopReader) Read(p []byte) (int, error) {
	select {
	case <-s.stop:
		return 0, io.EOF
	default:
		return s.r.Read(p)
	}
}

func run() error {
	fs := flag.NewFlagSet("mrtreplay", flag.ExitOnError)
	ribFile := fs.String("rib", "", "TABLE_DUMP_V2 RIB dump loaded as the baseline table")
	updFile := fs.String("updates", "", "BGP4MP update stream replayed in file order")
	roaFile := fs.String("roas", "", "ROA file ('prefix maxlen origin' per line) for the built-in validator")
	connect := fs.String("connect", "", "feed an external collector at host:port instead of the built-in one")
	drain := fs.Duration("drain", 10*time.Second, "how long the built-in collector may drain at shutdown")
	attempts := fs.Int("max-attempts", 8, "consecutive failed connect attempts before a session gives up (0 = retry forever)")
	progress := fs.Duration("progress", 0, "log a replay-counter snapshot at this interval (0 = off)")
	rf := cli.AddReplayFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *ribFile == "" && *updFile == "" {
		return errors.New("nothing to replay: give -rib and/or -updates")
	}
	if *connect != "" && *roaFile != "" {
		return errors.New("-roas configures the built-in collector; with -connect validation is the remote side's job")
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mrtreplay: "+format+"\n", args...)
	}
	// The first SIGINT closes stop: the engine ends dispatch at the next
	// record boundary (interrupting any pacing wait), both inputs report
	// EOF if read again, and the normal graceful drain proceeds.
	stop := make(chan struct{})
	cfg := firehose.Config{MaxAttempts: *attempts, Stop: stop, Logf: logf}
	if err := rf.Apply(&cfg); err != nil {
		return err
	}
	open := func(path string) (io.Reader, func() error, error) {
		fh, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return &stopReader{r: fh, stop: stop}, fh.Close, nil
	}
	if *ribFile != "" {
		r, closeFn, err := open(*ribFile)
		if err != nil {
			return err
		}
		defer closeFn()
		cfg.RIB = r
	}
	if *updFile != "" {
		r, closeFn, err := open(*updFile)
		if err != nil {
			return err
		}
		defer closeFn()
		cfg.Updates = r
	}

	// Built-in collector: route-server validator at the session boundary,
	// detector behind it, alerts straight to stdout.
	var (
		det       *feed.Detector
		collector *feed.Collector
		listener  net.Listener
		serveErr  chan error
	)
	addr := *connect
	if addr == "" {
		var store rpki.Store
		rs := feed.NewRouteServer(&store)
		det = feed.NewDetector(rs, func(a feed.Alert) {
			fmt.Printf("ALERT [%s] t=%d peer=%v prefix=%v origin=%v path=%v\n",
				a.Reason, a.Time, a.PeerAS, a.Prefix, a.Origin, a.Path)
		})
		if *roaFile != "" {
			fh, err := os.Open(*roaFile)
			if err != nil {
				return err
			}
			n, err := rpki.LoadROAs(&store, fh, *roaFile, det.NotePublished)
			fh.Close()
			if err != nil {
				return err
			}
			logf("loaded %d ROAs from %s", n, *roaFile)
		}
		collector = &feed.Collector{
			LocalAS: 65535, RouterID: 0x7f000001,
			Detector: det, Validator: rs,
			HoldTime: cfg.HoldTime,
			Logf:     logf,
		}
		var err error
		listener, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr = listener.Addr().String()
		serveErr = make(chan error, 1)
		go func() { serveErr <- collector.Serve(listener) }()
	}
	cfg.Dial = func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", addr, 10*time.Second)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		select {
		case s := <-sig:
			logf("received %v; finishing dispatch and draining (interrupt again to force-close)", s)
			close(stop)
		case <-ctx.Done():
			return
		}
		select {
		case s := <-sig:
			logf("received %v again; force-closing sessions", s)
			cancel()
		case <-ctx.Done():
		}
	}()

	e := firehose.New(cfg)
	if *progress > 0 {
		ticker := time.NewTicker(*progress)
		defer ticker.Stop()
		go func() {
			for {
				select {
				case <-ticker.C:
					s := e.Snapshot()
					logf("progress: %d updates dispatched over %d sessions, %d sent in %d writes, %d shed, %d skipped",
						s.Updates, s.Sessions, s.Sent, s.Writes, s.Shed, s.Skipped)
					if collector != nil {
						cs := collector.Stats()
						logf("progress: collector received %d updates in %d reads", cs.Updates, cs.Reads)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	stats, runErr := e.Run(ctx)

	// Run returning means the sessions wrote everything and closed; the
	// built-in collector still has TCP buffers to read through, so drain
	// it before reading the detector.
	if collector != nil {
		if err := listener.Close(); err != nil {
			logf("close listener: %v", err)
		}
		sctx, scancel := context.WithTimeout(context.Background(), *drain)
		if err := collector.Shutdown(sctx); err != nil {
			logf("drain timeout after %v: force-closed remaining sessions", *drain)
		}
		scancel()
		<-serveErr
		cs := collector.Stats()
		logf("collector: %d sessions, %d updates in %d reads, %d malformed messages, %d hold expiries",
			cs.Sessions, cs.Updates, cs.Reads, cs.MalformedMessages, cs.HoldExpiries)
	}

	var reconnects int
	for _, r := range stats.Runners {
		reconnects += r.Stats.Reconnects
	}
	logf("replay: %d RIB routes, %d updates from %d peers over %d sessions (%d reconnects); %d sent in %d writes, %d shed, %d records skipped",
		stats.RIBRoutes, stats.Updates, stats.Peers, stats.Sessions, reconnects, stats.Sent, stats.Writes, stats.Shed, stats.Skipped)
	if stats.Truncated {
		logf("input truncated mid-record; the replay covered its intact prefix")
	}
	if det != nil {
		alerts := det.Alerts()
		fmt.Printf("%d alert(s)\n", len(alerts))
		fmt.Printf("alert-set digest: %x\n", feed.AlertSetDigest(alerts))
	}
	return runErr
}
