package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

const (
	// firehosePeers is the paper's BGPmon feed count.
	firehosePeers = 24
	collectorAS   = 65535
	transitAS     = 3491
	// Every origin AS holds prefixesPerOrigin consecutive /24s, one ROA
	// each.
	prefixesPerOrigin = 4
)

// feedInput is one generated replay: the MRT bytes, the ROAs in force
// and what a correct replay must report.
type feedInput struct {
	rib, updates []byte
	roas         []rpki.ROA
	ribRoutes    int
	records      int // BGP4MP records in the update stream
	announced    int // NLRI prefixes announced across RIB and stream
	// invalid lists the ROA-invalid announcements in stream order, one
	// entry per announced prefix, with the original vantage peer's index.
	invalid []invalidRoute
}

type invalidRoute struct {
	peer   int
	prefix prefix.Prefix
	origin asn.ASN
	path   []asn.ASN
}

func peerAS(i int) asn.ASN   { return asn.FromUint32(uint32(64500 + i)) }
func originAS(k int) asn.ASN { return asn.FromUint32(uint32(100000 + k)) }
func ownedPrefix(k, j int) prefix.Prefix {
	return prefix.New(0x0B000000+uint32(k*prefixesPerOrigin+j)<<8, 24)
}

// genFeed renders the replay from the seeded stream: a TABLE_DUMP_V2
// baseline of routesPerPeer valid routes from each of the 24 peers, then
// `records` BGP4MP updates — 85% announcements of 1–4 /24s, 15%
// withdrawals — of which 1% carry an origin no ROA authorizes. Every
// invalid announcement uses its own hijacker AS, so each (prefix,
// origin) alert has exactly one source and the alert set does not
// depend on session interleaving.
func genFeed(e *env, origins, routesPerPeer, records int) (*feedInput, error) {
	rng := e.rng("firehose")
	in := &feedInput{records: records}
	for k := 0; k < origins; k++ {
		for j := 0; j < prefixesPerOrigin; j++ {
			in.roas = append(in.roas, rpki.ROA{Prefix: ownedPrefix(k, j), MaxLength: 24, Origin: originAS(k)})
		}
	}

	var rib bytes.Buffer
	mw := mrt.NewWriter(&rib, 0)
	pit := &mrt.PeerIndexTable{CollectorBGPID: 0x7F000001, ViewName: "bench"}
	for i := 0; i < firehosePeers; i++ {
		pit.Peers = append(pit.Peers, mrt.Peer{BGPID: peerAS(i).Uint32(), Addr: 0x0A000001 + uint32(i), AS: peerAS(i)})
	}
	if err := mw.WritePeerIndexTable(pit); err != nil {
		return nil, err
	}
	for seq := 0; seq < routesPerPeer; seq++ {
		k := seq / prefixesPerOrigin % origins
		rec := &mrt.RIBIPv4Unicast{SequenceNumber: uint32(seq), Prefix: ownedPrefix(k, seq%prefixesPerOrigin)}
		for i := 0; i < firehosePeers; i++ {
			rec.Entries = append(rec.Entries, mrt.RIBEntry{
				PeerIndex: uint16(i), Origin: bgpwire.OriginIGP,
				ASPath: []asn.ASN{peerAS(i), transitAS, originAS(k)}, NextHop: 0x0A000001 + uint32(i),
			})
		}
		if err := mw.WriteRIB(rec); err != nil {
			return nil, err
		}
		in.ribRoutes += firehosePeers
		in.announced += firehosePeers
	}
	if err := mw.Flush(); err != nil {
		return nil, err
	}
	in.rib = rib.Bytes()

	var upd bytes.Buffer
	mw = mrt.NewWriter(&upd, 1)
	for r := 0; r < records; r++ {
		peer := rng.Intn(firehosePeers)
		k := rng.Intn(origins)
		count := 1 + rng.Intn(prefixesPerOrigin)
		ps := make([]prefix.Prefix, count)
		for j := range ps {
			ps[j] = ownedPrefix(k, j)
		}
		u := &bgpwire.Update{}
		switch roll := rng.Intn(100); {
		case roll < 15:
			u.Withdrawn = ps
		default:
			origin := originAS(k)
			if roll == 99 {
				origin = asn.FromUint32(uint32(200000 + len(in.invalid)))
			}
			u.Origin, u.NextHop, u.NLRI = bgpwire.OriginIGP, 0x0A000001+uint32(peer), ps
			u.ASPath = []asn.ASN{peerAS(peer), transitAS, origin}
			in.announced += count
			if roll == 99 {
				for _, p := range ps {
					in.invalid = append(in.invalid, invalidRoute{peer: peer, prefix: p, origin: origin, path: u.ASPath})
				}
			}
		}
		err := mw.WriteBGP4MP(&mrt.BGP4MPMessage{
			Timestamp: 1, PeerAS: peerAS(peer), LocalAS: collectorAS,
			PeerAddr: 0x0A000001 + uint32(peer), LocalAddr: 0x7F000001, Message: u,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := mw.Flush(); err != nil {
		return nil, err
	}
	in.updates = upd.Bytes()
	return in, nil
}

// expectedAlerts is the alert set a replay over `sessions` shared
// sessions must raise, computed from the generator's list alone. Peers
// first appear in index order (the RIB dump lists every peer on its
// first record), so peer i rides slot i mod sessions and the collector
// attributes the alert to that slot's speaker, the slot's first peer.
func (in *feedInput) expectedAlerts(sessions int) []feed.Alert {
	out := make([]feed.Alert, 0, len(in.invalid))
	for _, r := range in.invalid {
		out = append(out, feed.Alert{
			PeerAS: peerAS(r.peer % sessions), Prefix: r.prefix, Origin: r.origin,
			Path: r.path, Reason: feed.ReasonInvalidOrigin,
		})
	}
	return out
}

// detection builds a fresh validator and detector over the ROAs.
func (in *feedInput) detection(store *rpki.Store) (*feed.RouteServer, *feed.Detector) {
	rs := feed.NewRouteServer(store)
	det := feed.NewDetector(rs, nil)
	for _, roa := range in.roas {
		det.NotePublished(roa.Prefix)
	}
	return rs, det
}

// replayResult is one end-to-end pass.
type replayResult struct {
	wall     time.Duration
	stats    firehose.Stats
	alerts   []feed.Alert
	observed int
}

// replay runs one pass: a fresh collector (route-server validator plus
// detector) on loopback TCP, the firehose engine at full speed over
// `sessions` shared sessions, then a drain through Collector.Shutdown.
func (in *feedInput) replay(store *rpki.Store, sessions int) (replayResult, error) {
	var res replayResult
	rs, det := in.detection(store)
	collector := &feed.Collector{LocalAS: collectorAS, RouterID: 1, Detector: det, Validator: rs, HoldTime: 30}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	served := make(chan error, 1)
	go func() { served <- collector.Serve(l) }()
	addr := l.Addr().String()
	eng := firehose.New(firehose.Config{
		RIB: bytes.NewReader(in.rib), Updates: bytes.NewReader(in.updates),
		Dial:     func() (io.ReadWriteCloser, error) { return net.DialTimeout("tcp", addr, 5*time.Second) },
		Sessions: sessions, Speed: 0, HoldTime: 30, BackoffBase: time.Millisecond, MaxAttempts: 5,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	t0 := time.Now()
	stats, runErr := eng.Run(ctx)
	l.Close()
	shutErr := collector.Shutdown(ctx)
	if err := <-served; err != nil && !errors.Is(err, net.ErrClosed) && runErr == nil {
		runErr = err
	}
	res.wall = time.Since(t0)
	if runErr != nil {
		return res, runErr
	}
	if shutErr != nil {
		return res, shutErr
	}
	res.stats, res.alerts, res.observed = stats, det.Alerts(), rs.Stats().Observed
	return res, nil
}

// lost counts what a pass failed to deliver: updates dispatched but not
// sent, shed or skipped records, and alerts that should exist and do
// not.
func (in *feedInput) lost(res replayResult) int {
	missing := len(in.invalid) - len(res.alerts)
	if missing < 0 {
		missing = -missing
	}
	return res.stats.Updates - res.stats.Sent + res.stats.Shed + res.stats.Skipped + missing
}

func runFirehose(e *env) (*report, error) {
	rep := newReport("firehose_replay")
	origins, routesPerPeer, records, minPasses := 5000, 500, 100000, 4
	if e.quick {
		origins, routesPerPeer, records, minPasses = 50, 10, 400, 1
	}
	var in *feedInput
	var store *rpki.Store
	build := func() (err error) {
		if in, err = genFeed(e, origins, routesPerPeer, records); err != nil {
			return err
		}
		store = &rpki.Store{}
		for _, roa := range in.roas {
			if err := store.Add(roa); err != nil {
				return err
			}
		}
		return nil
	}
	if e.trace {
		if err := build(); err != nil {
			return nil, err
		}
	} else {
		s, reps, err := medianSetup(build)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", s, reps)
	}
	var listed bytes.Buffer
	for _, r := range in.invalid {
		fmt.Fprintf(&listed, "%d %v %v %v\n", r.peer, r.prefix, r.origin, r.path)
	}
	e.pin(rep, "invalid_announcements", hexDigest(listed.Bytes()))
	wantDigest := feed.AlertSetDigest(in.expectedAlerts(e.nproc))

	if !e.quick {
		if _, err := in.replay(store, e.nproc); err != nil { // warm-up
			return nil, err
		}
	}
	var perS, wallMs []float64
	var last replayResult
	good := true
	detail := ""
	err := e.measure(minPasses, func() error {
		var res replayResult
		var err error
		allocs, bytesAlloc := memDelta(func() { res, err = in.replay(store, e.nproc) })
		if err != nil {
			return err
		}
		lost := in.lost(res)
		digest := feed.AlertSetDigest(res.alerts)
		ok := lost == 0 && digest == wantDigest && res.stats.Updates == in.ribRoutes+in.records && res.observed == in.announced
		if !ok && detail == "" {
			detail = fmt.Sprintf("; pass %d: %d dispatched, %d sent, %d shed, %d skipped, %d validated of %d, %d alerts of %d",
				len(perS), res.stats.Updates, res.stats.Sent, res.stats.Shed, res.stats.Skipped, res.observed, in.announced, len(res.alerts), len(in.invalid))
		}
		good = good && ok
		rep.ops(res.stats.Updates, lost)
		perS = append(perS, float64(res.stats.Updates)/res.wall.Seconds())
		wallMs = append(wallMs, 1e3*res.wall.Seconds())
		last = res
		rep.set("firehose.allocs_per_update", allocs/float64(res.stats.Updates), res.stats.Updates)
		rep.set("firehose.bytes_per_update", bytesAlloc/float64(res.stats.Updates), res.stats.Updates)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.check("replay_complete", good, "Sent == Updates == %d, Shed == Skipped == 0, %d prefixes validated, alert-set digest %s equals the generator's over %d passes%s",
		in.ribRoutes+in.records, in.announced, hex.EncodeToString(wantDigest[:6]), len(perS), detail)
	rep.set("ops_per_s", median(perS), len(perS))
	rep.set("latency_ms", median(wallMs), len(wallMs))
	rep.set("updates_per_s", median(perS), len(perS))
	rep.set("firehose.sent", float64(last.stats.Sent), 1)
	rep.set("firehose.shed", float64(last.stats.Shed), 1)
	rep.set("firehose.skipped", float64(last.stats.Skipped), 1)
	rep.set("firehose.alerts", float64(len(last.alerts)), 1)
	e.logf("firehose_replay: %d peers over %d sessions, %d RIB routes + %d BGP4MP records, %d ROAs, %d ROA-invalid prefixes; in-process collector on loopback TCP",
		firehosePeers, e.nproc, in.ribRoutes, in.records, len(in.roas), len(in.invalid))
	if e.trace {
		if err := traceFirehose(e, rep, in, store); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// stageBatch is how many updates one span covers in the staged loop: the
// stages cost about a microsecond per update, so a span per call would
// measure the clock.
const stageBatch = 1000

// stagedFeed walks both MRT inputs as the driver's own single-goroutine
// loop over the pipeline's public functions — mrt.Reader.Next →
// bgpwire.Marshal → bgpwire.Unmarshal → RouteServer.Observe →
// Detector.Process — a span per stage per batch of updates.
func stagedFeed(tr *tracer, in *feedInput, store *rpki.Store) (time.Duration, int, []feed.Alert, error) {
	rs, det := in.detection(store)
	type item struct {
		peer asn.ASN
		u    *bgpwire.Update
	}
	batch := make([]item, 0, stageBatch+firehosePeers)
	wire := make([][]byte, 0, cap(batch))
	decoded := make([]*bgpwire.Update, 0, cap(batch))
	updates, op := 0, 0
	flush := func() error {
		wire, decoded = wire[:0], decoded[:0]
		sp := tr.begin("bgpwire.marshal", op)
		for _, it := range batch {
			b, err := bgpwire.Marshal(it.u)
			if err != nil {
				return err
			}
			wire = append(wire, b)
		}
		tr.end(sp)
		sp = tr.begin("bgpwire.unmarshal", op)
		for _, b := range wire {
			m, err := bgpwire.Unmarshal(b)
			if err != nil {
				return err
			}
			decoded = append(decoded, m.(*bgpwire.Update))
		}
		tr.end(sp)
		sp = tr.begin("feed.validate", op)
		for i, u := range decoded {
			rs.Observe(batch[i].peer, u)
		}
		tr.end(sp)
		sp = tr.begin("feed.detect", op)
		for i, u := range decoded {
			det.Process(feed.TimedUpdate{Time: uint32(updates + i), PeerAS: batch[i].peer, Update: u})
		}
		tr.end(sp)
		updates += len(batch)
		batch = batch[:0]
		op++
		return nil
	}
	t0 := time.Now()
	for _, data := range [][]byte{in.rib, in.updates} {
		mr := mrt.NewReader(bytes.NewReader(data))
		var pit *mrt.PeerIndexTable
		for done := false; !done; {
			sp := tr.begin("mrt.read", op)
			for len(batch) < stageBatch {
				rec, err := mr.Next()
				if err == io.EOF {
					done = true
					break
				}
				if err != nil {
					return 0, 0, nil, err
				}
				switch v := rec.(type) {
				case *mrt.PeerIndexTable:
					pit = v
				case *mrt.RIBIPv4Unicast:
					for _, ent := range v.Entries {
						batch = append(batch, item{pit.Peers[ent.PeerIndex].AS, &bgpwire.Update{
							Origin: ent.Origin, ASPath: ent.ASPath, NextHop: ent.NextHop, NLRI: []prefix.Prefix{v.Prefix},
						}})
					}
				case *mrt.BGP4MPMessage:
					if u, ok := v.Message.(*bgpwire.Update); ok {
						batch = append(batch, item{v.PeerAS, u})
					}
				}
			}
			tr.end(sp)
			if err := flush(); err != nil {
				return 0, 0, nil, err
			}
		}
	}
	return time.Since(t0), updates, det.Alerts(), nil
}

func traceFirehose(e *env, rep *report, in *feedInput, store *rpki.Store) error {
	// One session is the closest the real pipeline comes to one thread:
	// the reference the parts are compared with.
	wantOne := feed.AlertSetDigest(in.expectedAlerts(1))
	// The staged loop sees every update under its own vantage peer, which
	// is what a replay with one session per peer reports.
	wantStaged := feed.AlertSetDigest(in.expectedAlerts(firehosePeers))
	good := true
	updates := in.ribRoutes + in.records
	ref := func() (time.Duration, error) {
		res, err := in.replay(store, 1)
		if err != nil {
			return 0, err
		}
		ok := res.stats.Updates == updates && in.lost(res) == 0 && feed.AlertSetDigest(res.alerts) == wantOne
		good = good && ok
		rep.ops(updates, failedIf(!ok, updates))
		return res.wall, nil
	}
	staged := func(tr *tracer) (time.Duration, error) {
		wall, n, alerts, err := stagedFeed(tr, in, store)
		ok := n == updates && feed.AlertSetDigest(alerts) == wantStaged
		good = good && ok
		rep.ops(updates, failedIf(!ok, updates))
		return wall, err
	}
	rounds, err := e.stagedTrace(rep, updates, ref, staged)
	if err != nil {
		return err
	}
	layers := rounds[len(rounds)-1].layers
	rep.check("staged_eq_replay", good, "staged loop and one-session replay each handled %d updates and raised the %d alerts the generator lists", updates, len(in.invalid))

	per := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return lt.selfNs / float64(updates)
		}
		return 0
	}
	rep.set("mrt.read.ns_per_record", per("mrt.read"), updates)
	rep.set("bgpwire.marshal.ns_per_update", per("bgpwire.marshal"), updates)
	rep.set("bgpwire.unmarshal.ns_per_update", per("bgpwire.unmarshal"), updates)
	rep.set("feed.validate.ns_per_update", per("feed.validate"), updates)
	rep.set("feed.detect.ns_per_update", per("feed.detect"), updates)
	// What the stages do not cover is the transport: sessions, framing,
	// loopback TCP, the collector's read loops and the hand-offs between
	// goroutines.
	transport := 1 - rep.values["trace.coverage"]
	if transport < 0 {
		transport = 0
	}
	rep.set("firehose.transport_frac", transport, updates)
	return nil
}
