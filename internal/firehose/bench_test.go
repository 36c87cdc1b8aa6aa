package firehose_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

// benchUpdates renders n BGP4MP update records spread round-robin over
// the given peer count — the synthetic firehose the throughput
// benchmark replays.
func benchUpdates(b *testing.B, n, peers int) []byte {
	b.Helper()
	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 0)
	for i := 0; i < n; i++ {
		peer := asn.FromUint32(uint32(64500 + i%peers))
		origin := asn.FromUint32(uint32(65000 + i%100))
		err := mw.WriteBGP4MP(&mrt.BGP4MPMessage{
			PeerAS:    peer,
			LocalAS:   65535,
			PeerAddr:  0x0A000001,
			LocalAddr: 0x7F000001,
			Message: &bgpwire.Update{
				ASPath:  []asn.ASN{peer, asn.FromUint32(3491), origin},
				NextHop: 0x0A000001,
				NLRI:    []prefix.Prefix{prefix.New(uint32(0x0A000000|(i%65536)<<8), 24)},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReplayThroughput replays b.N synthetic updates over 8 probe
// sessions through a real TCP collector with the route-server validator
// at the boundary, timing the full pipeline — dispatch, session writes,
// collector reads, validation — and reporting updates/s. The end-to-end
// number is updates_per_s on `go run ./bench -workload firehose_replay`.
func BenchmarkReplayThroughput(b *testing.B) {
	const peers = 8
	data := benchUpdates(b, b.N, peers)

	var store rpki.Store
	rs := feed.NewRouteServer(&store)
	det := feed.NewDetector(rs, nil)
	collector := &feed.Collector{
		LocalAS: 65535, RouterID: 1,
		Detector: det, Validator: rs,
		HoldTime: 30,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = collector.Serve(l)
	}()

	e := firehose.New(firehose.Config{
		Updates: bytes.NewReader(data),
		Dial: func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
		HoldTime:    30,
		BackoffBase: time.Millisecond,
	})

	b.ReportAllocs()
	b.ResetTimer()
	stats, err := e.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := collector.Shutdown(ctx); err != nil {
		b.Fatalf("collector drain: %v", err)
	}
	<-serveDone
	b.StopTimer()

	if stats.Updates != b.N || stats.Sent != b.N || stats.Shed != 0 {
		b.Fatalf("replay lost traffic: %d dispatched, %d sent, %d shed of %d", stats.Updates, stats.Sent, stats.Shed, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}
