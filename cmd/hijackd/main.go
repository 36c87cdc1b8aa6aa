// Command hijackd serves what-if hijack queries over a loaded world:
// the long-running form of the scan tools, for interactive and
// operational use. It loads one topology once, answers each exact
// per-attack query with one warm solve, and runs sweep, deployment and
// detection queries on the scan tools' own sweep runtime (see DESIGN.md
// §11 for the serving contract).
//
// Usage:
//
//	hijackd -scale 5000 -listen 127.0.0.1:8642
//
//	curl -s localhost:8642/healthz
//	curl -s -d '{"target": 42, "attacker": 700, "exact": true}' localhost:8642/v1/attack
//
// Endpoints: GET /healthz, GET /metrics, POST /reload, POST
// /v1/attack, /v1/vulnerability, /v1/deployment, /v1/detection.
//
// Signals: SIGHUP starts a new epoch (as does POST /reload);
// SIGTERM/SIGINT stop intake, drain in-flight queries and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/queryd"
	"github.com/bgpsim/bgpsim/internal/tick"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hijackd:", err)
		os.Exit(1)
	}
}

// drainTimeout bounds the graceful-shutdown wait for in-flight queries;
// per-query solve time is milliseconds, so this is generous.
const drainTimeout = 30 * time.Second

// Connection deadlines. A client has readHeaderTimeout to send its
// request header and readTimeout for the whole request, which lets the
// largest body queryd accepts (8 MiB) arrive at ~300 KiB/s; a keep-alive
// connection idle for idleTimeout is closed. Responses are not bounded:
// a deployment sweep may legitimately compute for longer. Nor does the
// read deadline cancel such a handler's r.Context(): net/http clears it
// once the whole request is read, before its background read of the
// connection starts.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the HTTP server around h with the given header
// deadline and the package's read and idle deadlines.
func newServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hijackd", flag.ContinueOnError)
	wf := cli.AddWorldFlags(fs)
	workers := cli.AddWorkersFlag(fs)
	sv := cli.AddServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := wf.BuildWorld()
	if err != nil {
		return err
	}
	cli.Describe(w)
	s, err := queryd.New(queryd.Config{World: w, Workers: *workers, Backlog: *sv.Backlog})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *sv.Listen)
	if err != nil {
		return err
	}
	// The smoke harness parses this line for the bound address, so :0
	// listeners stay scriptable.
	fmt.Fprintf(os.Stderr, "hijackd: listening on http://%s\n", ln.Addr())

	srv := newServer(s.Handler(), readHeaderTimeout)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)
	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				fmt.Fprintf(os.Stderr, "hijackd: reloaded, epoch %d\n", s.Reload())
				continue
			}
			// Graceful drain: Shutdown stops intake and waits for
			// handlers, for at most drainTimeout.
			ctx, cancel := timeoutCtx(tick.Or(nil), drainTimeout)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
			fmt.Fprintln(os.Stderr, "hijackd: drained, exiting")
			return nil
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}

// timeoutCtx derives a deadline context from a tick.Clock, keeping the
// drain timer on the same clock seam the rest of the repo uses.
func timeoutCtx(clk tick.Clock, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	t := clk.NewTimer(d)
	go func() {
		defer t.Stop()
		select {
		case <-t.C():
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
