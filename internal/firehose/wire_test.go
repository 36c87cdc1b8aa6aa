package firehose_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/internal/tick"
)

// attr encodes one path attribute, with the extended-length flag when
// ext is set or the value needs it.
func attr(flags, typ byte, val []byte, ext bool) []byte {
	if ext || len(val) > 255 {
		return append(binary.BigEndian.AppendUint16([]byte{flags | 0x10, typ}, uint16(len(val))), val...)
	}
	return append([]byte{flags, typ, byte(len(val))}, val...)
}

// segment encodes one AS_PATH segment.
func segment(typ byte, path ...uint32) []byte {
	b := []byte{typ, byte(len(path))}
	for _, a := range path {
		b = binary.BigEndian.AppendUint32(b, a)
	}
	return b
}

// nlri encodes prefixes in the (length, truncated address) form.
func nlri(ps ...string) []byte {
	var b []byte
	for _, s := range ps {
		p := prefix.MustParse(s)
		var addr [4]byte
		binary.BigEndian.PutUint32(addr[:], p.Addr)
		b = append(append(b, p.Len), addr[:(p.Len+7)/8]...)
	}
	return b
}

// rawUpdate frames an UPDATE from its three encoded parts.
func rawUpdate(withdrawn, attrs, announced []byte) []byte {
	body := binary.BigEndian.AppendUint16(nil, uint16(len(withdrawn)))
	body = append(body, withdrawn...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(append(body, attrs...), announced...)
	msg := bytes.Repeat([]byte{0xff}, 16)
	msg = binary.BigEndian.AppendUint16(msg, uint16(bgpwire.HeaderLen+len(body)))
	return append(append(msg, bgpwire.TypeUpdate), body...)
}

// pathAttrs is ORIGIN, the AS_PATH given as segments, NEXT_HOP and any
// extra attributes, in that order.
func pathAttrs(extLen bool, segs [][]byte, extra ...[]byte) []byte {
	b := attr(0x40, bgpwire.AttrOrigin, []byte{bgpwire.OriginIGP}, false)
	b = append(b, attr(0x40, bgpwire.AttrASPath, bytes.Join(segs, nil), extLen)...)
	b = append(b, attr(0x40, bgpwire.AttrNextHop, []byte{10, 0, 0, 1}, false)...)
	for _, x := range extra {
		b = append(b, x...)
	}
	return b
}

// wireEvent is one BGP4MP record's peer and BGP message.
type wireEvent struct {
	peer uint32
	msg  []byte
}

// wireVariants holds UPDATEs whose wire form is not what Enqueue would
// encode from their decoded value: AS_SET and confederation segments, an
// unknown optional transitive attribute, an extended-length AS_PATH a
// short one would fit, a long path that needs one, and a withdrawal that
// carries attributes. Origins 666 and 667 are ROA-invalid for 10.0.0.0/8
// space, so several of them raise alerts.
func wireVariants() []wireEvent {
	seq, set := byte(bgpwire.SegmentSequence), byte(bgpwire.SegmentSet)
	confSeq, confSet := byte(bgpwire.SegmentConfedSequence), byte(bgpwire.SegmentConfedSet)
	long := make([]uint32, 300)
	for i := range long {
		long[i] = 3000 + uint32(i)
	}
	long[len(long)-1] = 666
	unknown := attr(0xC0, 99, []byte{1, 2, 3, 4, 5}, false)
	return []wireEvent{
		{64501, rawUpdate(nil, pathAttrs(false, [][]byte{segment(seq, 64501, 100)}), nlri("10.1.0.0/16"))},
		{64501, rawUpdate(nil, pathAttrs(false, [][]byte{segment(seq, 64501, 174), segment(set, 666, 667)}), nlri("10.2.0.0/16", "10.2.1.0/24"))},
		{64502, rawUpdate(nil, pathAttrs(false, [][]byte{segment(confSeq, 64512, 64513), segment(seq, 64502, 200), segment(confSet, 64514)}), nlri("10.3.0.0/16"))},
		{64502, rawUpdate(nil, pathAttrs(false, [][]byte{segment(seq, 64502, 666)}, unknown), nlri("10.4.0.0/16"))},
		{64503, rawUpdate(nil, pathAttrs(true, [][]byte{segment(seq, 64503, 300)}), nlri("10.5.0.0/16"))},
		{64503, rawUpdate(nil, pathAttrs(false, [][]byte{segment(seq, long[:255]...), segment(seq, long[255:]...)}), nlri("10.6.0.0/16"))},
		{64501, rawUpdate(nlri("10.1.0.0/16", "10.9.0.0/16"), pathAttrs(false, [][]byte{segment(seq, 64501, 667)}), nil)},
		{64503, rawUpdate(nil, pathAttrs(false, [][]byte{segment(confSeq, 64515), segment(seq, 64503, 667)}, unknown), nlri("10.7.0.0/16"))},
	}
}

// bgp4mpRecord frames msg as a BGP4MP MESSAGE_AS4 record from peer.
func bgp4mpRecord(ts, peer uint32, msg []byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, peer)
	body = binary.BigEndian.AppendUint32(body, 65535)
	body = append(body, 0, 0, 0, 1) // interface index, AFI IPv4
	body = binary.BigEndian.AppendUint32(body, 0x0A000001)
	body = binary.BigEndian.AppendUint32(body, 0x7F000001)
	body = append(body, msg...)
	hdr := binary.BigEndian.AppendUint32(nil, ts)
	hdr = binary.BigEndian.AppendUint16(hdr, mrt.TypeBGP4MP)
	hdr = binary.BigEndian.AppendUint16(hdr, mrt.SubtypeMessageAS4)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	return append(hdr, body...)
}

// wireStreams renders the variants as a BGP4MP stream twice: with each
// message as built, and with each decoded and re-encoded — what the
// replay sent before it forwarded bytes.
func wireStreams(t *testing.T) (raw, reencoded []byte) {
	t.Helper()
	var buf bytes.Buffer
	for i, ev := range wireVariants() {
		raw = append(raw, bgp4mpRecord(uint32(i+1), ev.peer, ev.msg)...)
		msg, err := bgpwire.Unmarshal(ev.msg)
		if err != nil {
			t.Fatalf("variant %d does not decode: %v", i, err)
		}
		mw := mrt.NewWriter(&buf, uint32(i+1))
		if err := mw.WriteBGP4MP(&mrt.BGP4MPMessage{
			Timestamp: uint32(i + 1), PeerAS: asn.FromUint32(ev.peer), LocalAS: 65535,
			PeerAddr: 0x0A000001, LocalAddr: 0x7F000001, Message: msg,
		}); err != nil {
			t.Fatal(err)
		}
		if err := mw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return raw, buf.Bytes()
}

// wireOutcome is what a collector made of one replayed stream.
type wireOutcome struct {
	digest   [32]byte
	alerts   int
	boundary feed.RouteServerStats
	recorded []byte
	stats    firehose.Stats
}

// replayWire replays updates over one session into a recording,
// route-server-mode collector.
func replayWire(t *testing.T, updates []byte) wireOutcome {
	t.Helper()
	var store rpki.Store
	for _, s := range []string{"10.0.0.0/8"} {
		if err := store.Add(rpki.ROA{Prefix: prefix.MustParse(s), MaxLength: 24, Origin: 100}); err != nil {
			t.Fatal(err)
		}
	}
	rs := feed.NewRouteServer(&store)
	det := feed.NewDetector(rs, nil)
	det.NotePublished(prefix.MustParse("10.0.0.0/8"))
	c, dial, join := pipeCollector(t, det, rs, tick.NewFake())
	var recorded bytes.Buffer
	c.Recorder = mrt.NewWriter(&recorded, 0)
	stats, err := firehose.New(firehose.Config{
		Updates: bytes.NewReader(updates), Dial: dial, Sessions: 1, Clock: tick.NewFake(),
	}).Run(context.Background())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	join.Wait()
	if err := c.Recorder.Flush(); err != nil {
		t.Fatal(err)
	}
	return wireOutcome{feed.AlertSetDigest(det.Alerts()), len(det.Alerts()), rs.Stats(), recorded.Bytes(), stats}
}

// TestForwardedBytesMatchReencoding: the replay forwards each UPDATE's
// bytes as read instead of decoding and re-encoding it. On a stream
// whose wire forms differ from the re-encoded ones, the collector must
// raise the same alert set, count the same boundary validations and
// record the same MRT bytes as from the re-encoded stream.
func TestForwardedBytesMatchReencoding(t *testing.T) {
	raw, reencoded := wireStreams(t)
	if bytes.Equal(raw, reencoded) {
		t.Fatal("the variants re-encode to their own bytes: the test compares nothing")
	}
	got, want := replayWire(t, raw), replayWire(t, reencoded)
	n := len(wireVariants())
	if got.stats.Updates != n || got.stats.Sent != n || got.stats.Skipped != 0 {
		t.Fatalf("raw stream: %+v, want %d updates dispatched and sent", got.stats, n)
	}
	if want.alerts == 0 || want.boundary.Observed == 0 || len(want.recorded) == 0 {
		t.Fatalf("re-encoded stream raised %d alerts over %d observed announcements and recorded %d bytes: the test compares nothing",
			want.alerts, want.boundary.Observed, len(want.recorded))
	}
	if got.digest != want.digest || got.alerts != want.alerts {
		t.Errorf("forwarded bytes raised %d alerts (digest %x), re-encoding %d (digest %x)", got.alerts, got.digest[:6], want.alerts, want.digest[:6])
	}
	if got.boundary != want.boundary {
		t.Errorf("boundary stats %+v from forwarded bytes, %+v from re-encoding", got.boundary, want.boundary)
	}
	if !bytes.Equal(got.recorded, want.recorded) {
		t.Errorf("recorded MRT differs: %d bytes from forwarded bytes, %d from re-encoding", len(got.recorded), len(want.recorded))
	}
}

// TestReplayReadEnqueueAllocFree pins the replay's per-record cost as a
// count any machine reproduces: reading one RIB record or one BGP4MP
// UPDATE record into reused storage and putting its routes onto a
// session's table allocate nothing once storage has grown to the
// stream's largest record. A RIB entry is encoded onto the table as
// loadRIB does it, an UPDATE's bytes are copied. The runner's MaxPending
// bounds its table, so the table stops growing too.
func TestReplayReadEnqueueAllocFree(t *testing.T) {
	const records = 1500
	path := func(i int) []asn.ASN {
		return append([]asn.ASN{64501, 3356, 174, 2914, 1299, 6939, 3257, 6461}[:1+i%8], asn.ASN(65000+i))
	}
	var rib, upd bytes.Buffer
	rw, uw := mrt.NewWriter(&rib, 0), mrt.NewWriter(&upd, 1)
	if err := rw.WritePeerIndexTable(&mrt.PeerIndexTable{Peers: []mrt.Peer{{AS: 64501}, {AS: 64502}, {AS: 64503}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		rec := &mrt.RIBIPv4Unicast{SequenceNumber: uint32(i), Prefix: prefix.New(uint32(i)<<8|0x0A000000, 24)}
		for j := 0; j <= i%3; j++ {
			rec.Entries = append(rec.Entries, mrt.RIBEntry{PeerIndex: uint16(j), Origin: bgpwire.OriginIGP, ASPath: path(i + j), NextHop: 1})
		}
		if err := rw.WriteRIB(rec); err != nil {
			t.Fatal(err)
		}
		err := uw.WriteBGP4MP(&mrt.BGP4MPMessage{PeerAS: 64501, LocalAS: 65535, Message: &bgpwire.Update{
			Withdrawn: []prefix.Prefix{prefix.New(uint32(i)<<8|0x0B000000, 24)}[:i%2],
			Origin:    bgpwire.OriginIGP, ASPath: path(i), NextHop: 1,
			NLRI: []prefix.Prefix{prefix.New(uint32(i)<<8|0x0A000000, 24), prefix.New(uint32(i)<<8|0x0C000000, 24)}[:1+i%2],
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(rw.Flush(), uw.Flush()); err != nil {
		t.Fatal(err)
	}
	r := &feed.ProbeRunner{AS: 64501, MaxPending: 64}
	var scratch mrt.Scratch
	var stepErr error
	check := func(err error) {
		if err != nil && stepErr == nil {
			stepErr = err
		}
	}
	ribReader := mrt.NewReader(bytes.NewReader(rib.Bytes()))
	if _, _, err := ribReader.NextInto(&scratch); err != nil { // the peer index table
		t.Fatal(err)
	}
	var u bgpwire.Update
	var nlri [1]prefix.Prefix
	ribStep := func() {
		rec, _, err := ribReader.NextInto(&scratch)
		if err != nil {
			check(err)
			return
		}
		v := rec.(*mrt.RIBIPv4Unicast)
		for _, e := range v.Entries {
			nlri[0] = v.Prefix
			u = bgpwire.Update{Origin: e.Origin, ASPath: e.ASPath, NextHop: e.NextHop, NLRI: nlri[:]}
			check(r.Enqueue(&u))
		}
	}
	updReader := mrt.NewReader(bytes.NewReader(upd.Bytes()))
	updStep := func() {
		_, msg, err := updReader.NextInto(&scratch)
		if err == nil {
			err = r.EnqueueWire(msg)
		}
		check(err)
	}
	for _, half := range []struct {
		name string
		step func()
	}{{"RIB record", ribStep}, {"BGP4MP record", updStep}} {
		for i := 0; i < 200; i++ {
			half.step()
		}
		allocs := testing.AllocsPerRun(1000, half.step)
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if allocs != 0 {
			t.Errorf("%v allocations per replayed %s, want 0", allocs, half.name)
		}
	}
}
