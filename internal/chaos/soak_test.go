package chaos_test

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/chaos"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

// chaos.seed selects the fault schedule; CI runs the soak at two fixed
// seeds: go test ./internal/chaos/ -args -chaos.seed=N
var chaosSeed = flag.Int64("chaos.seed", 1, "base seed for the chaotic soak run")

const soakProbes = 6

type soakResult struct {
	alerts     []feed.Alert
	sessions   int
	reconnects int
	faults     chaos.Stats
}

// runSoak drives soakProbes probe runners — each announcing one valid
// route and one unique hijack — through a transport that injects
// resets, truncations, corruption, and stalls, and returns what the
// detector saw once every expected alert arrived.
func runSoak(t *testing.T, seed int64, chaotic bool) soakResult {
	t.Helper()
	var store rpki.Store
	det := feed.NewDetector(&store, nil)
	for i := 0; i < soakProbes; i++ {
		p := prefix.MustParse(fmt.Sprintf("10.%d.0.0/16", i))
		if err := store.Add(rpki.ROA{Prefix: p, MaxLength: 24, Origin: asn.ASN(1000 + i)}); err != nil {
			t.Fatal(err)
		}
		det.NotePublished(p)
	}
	collector := &feed.Collector{
		LocalAS: 65535, RouterID: 1, Detector: det,
		HoldTime: 30, MaxMalformed: 3,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = collector.Serve(l)
	}()

	cfg := chaos.Config{
		PReset: 0.15, PTruncate: 0.1, PCorrupt: 0.1,
		PStall: 0.2, Stall: 500 * time.Microsecond,
	}
	var (
		connMu     sync.Mutex
		chaosConns []*chaos.Conn
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runners := make([]*feed.ProbeRunner, soakProbes)
	var wg sync.WaitGroup
	for j := 0; j < soakProbes; j++ {
		probeAS := asn.ASN(65001 + j)
		p16 := prefix.MustParse(fmt.Sprintf("10.%d.0.0/16", j))
		attempts := 0 // Dial runs serially within one runner; no lock needed
		r := &feed.ProbeRunner{
			AS: probeAS, RouterID: uint32(100 + j),
			HoldTime:    30,
			BackoffBase: time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
			Jitter:      rand.New(rand.NewSource(seed + int64(j))),
			Dial: func() (io.ReadWriteCloser, error) {
				conn, err := net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
				if err != nil {
					return nil, err
				}
				attempts++
				// The first attempts fight the chaotic transport; after
				// that the weather clears, so the soak always terminates.
				if !chaotic || attempts > 6 {
					return conn, nil
				}
				cc := chaos.Wrap(conn, seed*1000+int64(j)*100+int64(attempts), cfg)
				connMu.Lock()
				chaosConns = append(chaosConns, cc)
				connMu.Unlock()
				return cc, nil
			},
		}
		// One valid announcement for the probe's own prefix...
		if err := r.Enqueue(&bgpwire.Update{
			Origin: bgpwire.OriginIGP, NextHop: 1,
			ASPath: []asn.ASN{probeAS, asn.ASN(1000 + j)},
			NLRI:   []prefix.Prefix{p16},
		}); err != nil {
			t.Fatal(err)
		}
		// ...and one unique hijack: even probes forge the origin on the
		// covering /16, odd probes announce a bogus more-specific /24.
		bogus := p16
		if j%2 == 1 {
			bogus = prefix.MustParse(fmt.Sprintf("10.%d.4.0/24", j))
		}
		if err := r.Enqueue(&bgpwire.Update{
			Origin: bgpwire.OriginIGP, NextHop: 1,
			ASPath: []asn.ASN{probeAS, asn.ASN(4000 + j)},
			NLRI:   []prefix.Prefix{bogus},
		}); err != nil {
			t.Fatal(err)
		}
		runners[j] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Run(ctx)
		}()
	}

	// Fixpoint: every hijack is eventually alerted exactly once, no
	// matter how many sessions the faults burned through on the way.
	deadline := time.Now().Add(30 * time.Second)
	for len(det.Alerts()) < soakProbes {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: only %d/%d alerts after 30s", seed, len(det.Alerts()), soakProbes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Grace period: retransmissions must not mint duplicate alerts.
	time.Sleep(25 * time.Millisecond)
	if n := len(det.Alerts()); n != soakProbes {
		t.Fatalf("seed %d: %d alerts, want exactly %d", seed, n, soakProbes)
	}

	cancel()
	wg.Wait()
	l.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := collector.Shutdown(sctx); err != nil {
		t.Fatalf("seed %d: shutdown: %v", seed, err)
	}
	<-serveDone

	res := soakResult{alerts: det.Alerts()}
	for _, r := range runners {
		st := r.Stats()
		res.sessions += st.Sessions
		res.reconnects += st.Reconnects
	}
	connMu.Lock()
	for _, cc := range chaosConns {
		st := cc.Stats()
		res.faults.Resets += st.Resets
		res.faults.Truncations += st.Truncations
		res.faults.Corruptions += st.Corruptions
		res.faults.Stalls += st.Stalls
	}
	connMu.Unlock()
	return res
}

// TestSoakChaoticFeedDeliversEveryAlertExactlyOnce is the headline
// robustness property: a hijack feed pushed through a transport full of
// resets, truncations, corruption, and stalls produces exactly the same
// alert set as a fault-free run — delayed, reconnected, retransmitted,
// but never lost and never duplicated.
func TestSoakChaoticFeedDeliversEveryAlertExactlyOnce(t *testing.T) {
	baseline := runSoak(t, 0, false)
	if len(baseline.alerts) != soakProbes {
		t.Fatalf("baseline alerts = %d, want %d", len(baseline.alerts), soakProbes)
	}
	want := feed.AlertSetDigest(baseline.alerts)

	for _, seed := range []int64{*chaosSeed, *chaosSeed + 41} {
		res := runSoak(t, seed, true)
		got := feed.AlertSetDigest(res.alerts)
		if got != want {
			t.Errorf("seed %d: alert-set digest %x != fault-free digest %x", seed, got, want)
		}
		if res.faults == (chaos.Stats{}) {
			t.Errorf("seed %d: chaotic run injected no faults; soak exercised nothing", seed)
		}
		if res.reconnects == 0 {
			t.Errorf("seed %d: no reconnects; fault schedule never killed a session (faults: %+v)", seed, res.faults)
		}
		t.Logf("seed %d: %d sessions, %d reconnects, faults %+v", seed, res.sessions, res.reconnects, res.faults)
	}
}
