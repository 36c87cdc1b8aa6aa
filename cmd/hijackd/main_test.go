package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// serve runs srv on a loopback listener until the test ends and returns
// its address.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestSlowHeaderClientDisconnected: a client that sends half a request
// header and stalls is cut off once the header deadline passes, while a
// complete request on the same server is answered.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
	addr := serve(t, newServer(h, 100*time.Millisecond))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: hijackd\r\n"); err != nil {
		t.Fatal(err)
	}
	// Without a header deadline the server waits forever; the client's
	// own deadline turns that into a failure.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("half-header client still connected after %v", time.Since(start))
	}
	if err != nil && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("read after stall: %v", err)
	}

	full, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, err := io.WriteString(full, "GET /healthz HTTP/1.1\r\nHost: hijackd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	full.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(full), nil)
	if err != nil {
		t.Fatalf("complete request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("complete request: status %d", resp.StatusCode)
	}
}

// TestReadDeadlineSparesRunningHandler: a handler that computes past the
// read deadline, after reading its whole request, keeps a live context —
// with a body and without one — so queryd can hand r.Context() to a
// long sweep.
func TestReadDeadlineSparesRunningHandler(t *testing.T) {
	const deadline = 100 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			t.Errorf("read body: %v", err)
		}
		time.Sleep(4 * deadline)
		if err := r.Context().Err(); err != nil {
			io.WriteString(w, err.Error())
			return
		}
		io.WriteString(w, "live")
	})
	srv := newServer(h, deadline)
	srv.ReadTimeout = deadline
	url := "http://" + serve(t, srv) + "/v1/deployment"
	for _, body := range []string{"", `{"target":1}`} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		if string(got) != "live" {
			t.Errorf("body %q: handler context after the read deadline: %s", body, got)
		}
	}
}

// TestServerDeadlines pins the production deadlines: every one set, and
// the read deadline long enough for a full 8 MiB body at 300 KiB/s.
func TestServerDeadlines(t *testing.T) {
	srv := newServer(http.NotFoundHandler(), readHeaderTimeout)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("deadlines unset: header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("header deadline %v exceeds the read deadline %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	const maxBody, minRate = 8 << 20, 300 << 10 // bytes, bytes/s
	if need := time.Duration(maxBody / minRate * int(time.Second)); srv.ReadTimeout < need {
		t.Errorf("read deadline %v is shorter than an 8 MiB body needs at 300 KiB/s (%v)", srv.ReadTimeout, need)
	}
}
