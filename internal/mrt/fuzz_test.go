package mrt_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// drainStream runs a Reader to its terminal error, checking the
// progress invariants every step: Offset never runs backwards or past
// the input, and every call either yields a record, a skippable error,
// or ends the stream. Returns the record count, the reader's skip
// count, how many of those skips spent the malformed budget (all but
// unsupported records), the clean-prefix offset and the terminal error
// (io.EOF for a clean end).
func drainStream(t *testing.T, data []byte, budget int) (recs, skipped, spent int, off int64, term error) {
	t.Helper()
	r := mrt.NewReader(bytes.NewReader(data))
	r.SetMalformedBudget(budget)
	// A record is at least a 12-byte header, so a reader that makes
	// progress can take at most len/12+1 steps to the terminal error.
	maxSteps := len(data)/12 + 2
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			t.Fatalf("reader made no progress: %d steps over %d bytes", steps, len(data))
		}
		rec, err := r.Next()
		if o := r.Offset(); o < off || o > int64(len(data)) {
			t.Fatalf("offset %d outside [%d,%d]", o, off, len(data))
		}
		off = r.Offset()
		switch {
		case err == nil:
			if rec == nil {
				t.Fatal("nil record with nil error")
			}
			recs++
		case mrt.Skippable(err):
			var unsupported *mrt.ErrUnsupportedRecord
			if !errors.As(err, &unsupported) {
				spent++
			}
		default:
			return recs, r.Skipped(), spent, off, err
		}
	}
}

// lockstepNextInto drains data with Next and with NextInto side by side
// and requires the same answer at every step: the same error, Offset and
// skip count, and the same record (nil and empty slices count as equal),
// except that NextInto leaves an UPDATE undecoded. RIB and BGP4MP
// records must come back in the caller's storage. NextInto's message
// bytes must be non-nil exactly when Next's record carries an UPDATE;
// then NextInto's record holds no message, its header fields are Next's,
// and the bytes Unmarshal to Next's UPDATE.
func lockstepNextInto(t *testing.T, data []byte, budget int) {
	t.Helper()
	fresh, reused := mrt.NewReader(bytes.NewReader(data)), mrt.NewReader(bytes.NewReader(data))
	fresh.SetMalformedBudget(budget)
	reused.SetMalformedBudget(budget)
	var scratch mrt.Scratch
	for step := 0; ; step++ {
		want, wantErr := fresh.Next()
		got, msg, err := reused.NextInto(&scratch)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("step %d: NextInto err %v, Next err %v", step, err, wantErr)
		}
		if fresh.Offset() != reused.Offset() || fresh.Skipped() != reused.Skipped() {
			t.Fatalf("step %d: NextInto at offset %d with %d skips, Next at %d with %d",
				step, reused.Offset(), reused.Skipped(), fresh.Offset(), fresh.Skipped())
		}
		if wantErr != nil {
			if !mrt.Skippable(wantErr) {
				return
			}
			continue
		}
		if rib, ok := got.(*mrt.RIBIPv4Unicast); ok && rib != &scratch.RIB {
			t.Fatalf("step %d: RIB record decoded outside the caller's storage", step)
		}
		if bm, ok := got.(*mrt.BGP4MPMessage); ok && bm != &scratch.BGP4MP {
			t.Fatalf("step %d: BGP4MP record decoded outside the caller's storage", step)
		}
		wantBM, _ := want.(*mrt.BGP4MPMessage)
		if wantBM == nil || !isUpdate(wantBM.Message) {
			if msg != nil {
				t.Fatalf("step %d: %T without an UPDATE came with %d message bytes", step, want, len(msg))
			}
			if !reflect.DeepEqual(normalized(got), normalized(want)) {
				t.Fatalf("step %d: NextInto read %+v, Next read %+v", step, got, want)
			}
			continue
		}
		if msg == nil {
			t.Fatalf("step %d: NextInto returned no bytes for an UPDATE", step)
		}
		gotHdr := *got.(*mrt.BGP4MPMessage)
		wantHdr := *wantBM
		wantHdr.Message = nil
		if gotHdr != wantHdr {
			t.Fatalf("step %d: NextInto read %+v, Next read %+v without its message", step, gotHdr, wantHdr)
		}
		again, err := bgpwire.Unmarshal(msg)
		if err != nil || !reflect.DeepEqual(normalized(again), normalized(wantBM.Message)) {
			t.Fatalf("step %d: message bytes decode to %+v (%v), Next read %+v", step, again, err, wantBM.Message)
		}
	}
}

func isUpdate(msg any) bool {
	_, ok := msg.(*bgpwire.Update)
	return ok
}

// normalized copies a record with its empty slices set to nil.
func normalized(v any) any {
	switch x := v.(type) {
	case *mrt.RIBIPv4Unicast:
		c := *x
		c.Entries = nil
		for _, e := range x.Entries {
			if len(e.ASPath) == 0 {
				e.ASPath = nil
			}
			c.Entries = append(c.Entries, e)
		}
		return &c
	case *mrt.BGP4MPMessage:
		c := *x
		c.Message = normalized(c.Message)
		return &c
	case *bgpwire.Update:
		c := *x
		if len(c.Withdrawn) == 0 {
			c.Withdrawn = nil
		}
		if len(c.ASPath) == 0 {
			c.ASPath = nil
		}
		if len(c.NLRI) == 0 {
			c.NLRI = nil
		}
		return &c
	}
	return v
}

// shrinkingRIB is a RIB dump whose records leave NextInto's reused
// storage longer than the next record needs: three entries, then none,
// then one entry whose attributes carry no AS_PATH.
func shrinkingRIB(tb testing.TB) []byte {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf, 0)
	rec := &mrt.RIBIPv4Unicast{Prefix: prefix.MustParse("10.0.0.0/24")}
	for i := uint16(0); i < 3; i++ {
		rec.Entries = append(rec.Entries, mrt.RIBEntry{PeerIndex: i, ASPath: []asn.ASN{64500, 3356, 174}, NextHop: 1})
	}
	if err := errors.Join(w.WritePeerIndexTable(&mrt.PeerIndexTable{Peers: make([]mrt.Peer, 3)}),
		w.WriteRIB(rec), w.WriteRIB(&mrt.RIBIPv4Unicast{SequenceNumber: 1}), w.Flush()); err != nil {
		tb.Fatal(err)
	}
	// Sequence 2, 10.0.1.0/24, one entry of peer 0 at time 0 whose
	// attributes are ORIGIN IGP alone.
	body := []byte{0, 0, 0, 2, 24, 10, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 0x40, bgpwire.AttrOrigin, 1, 0}
	hdr := []byte{0, 0, 0, 0, 0, mrt.TypeTableDumpV2, 0, mrt.SubtypeRIBIPv4Unicast, 0, 0, 0, byte(len(body))}
	return append(append(buf.Bytes(), hdr...), body...)
}

// hostBitsUpdate is a BGP4MP stream of a good UPDATE, then one whose
// only fault is deep in its body, an announced prefix with host bits
// set, then the good one again: a reader must skip the middle record
// whether it decodes the UPDATE or only checks it.
func hostBitsUpdate(tb testing.TB) []byte {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf, 0)
	rec := &mrt.BGP4MPMessage{PeerAS: 64500, LocalAS: 65535, Message: &bgpwire.Update{
		Origin: bgpwire.OriginIGP, ASPath: []asn.ASN{64500, 174}, NextHop: 1,
		NLRI: []prefix.Prefix{prefix.MustParse("10.0.0.0/15")},
	}}
	if err := errors.Join(w.WriteBGP4MP(rec), w.Flush()); err != nil {
		tb.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()...)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] = 1 // 10.1.0.0/15
	return append(append(append([]byte(nil), good...), bad...), good...)
}

// FuzzMRTReader drives the MRT reader over arbitrary bytes. The
// properties under test are the robustness contract the firehose replay
// engine leans on: no panic and no runaway allocation on corrupt
// lengths, skippable errors leave the stream aligned, truncation yields
// a clean prefix that is a fixed point under re-parsing, and the
// malformed budget trips after exactly budget+1 skips. The replay read,
// NextInto, must read every input exactly as Next does.
func FuzzMRTReader(f *testing.F) {
	var rib, upd bytes.Buffer
	if err := firehose.WriteIncidentRIB(&rib); err != nil {
		f.Fatal(err)
	}
	if err := firehose.WriteIncidentUpdates(&upd); err != nil {
		f.Fatal(err)
	}
	f.Add(rib.Bytes())
	f.Add(upd.Bytes())
	f.Add(append(rib.Bytes(), upd.Bytes()...))
	f.Add(rib.Bytes()[:len(rib.Bytes())-7]) // truncated mid-record
	f.Add(rib.Bytes()[:5])                  // truncated mid-header
	f.Add([]byte{})
	// Unknown record type, well-formed framing.
	f.Add([]byte{0, 0, 0, 0, 0, 99, 0, 1, 0, 0, 0, 2, 0xAB, 0xCD})
	// Implausible length claim: must be fatal, never a 2 GiB allocation.
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 4, 0x7f, 0xff, 0xff, 0xff})
	corrupt := append([]byte(nil), upd.Bytes()...)
	corrupt[20] ^= 0xff
	f.Add(corrupt)
	// RFC 6396 records the reader does not decode, between IPv4 updates.
	unsupported, _ := rfcDefinedStream(f, 3, 2, 2)
	f.Add(unsupported)
	f.Add(shrinkingRIB(f))
	f.Add(hostBitsUpdate(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		lockstepNextInto(t, data, -1)
		lockstepNextInto(t, data, 2)
		recs, skipped, spent, off, term := drainStream(t, data, -1)
		if errors.Is(term, mrt.ErrBudgetExhausted) {
			t.Fatalf("unlimited budget exhausted after %d skips", skipped)
		}
		if errors.Is(term, mrt.ErrTruncated) {
			// The clean prefix must re-parse to the same stream and end
			// cleanly: Offset is the contract the replay engine trusts
			// when it reports "replayed the intact prefix".
			recs2, skipped2, _, off2, term2 := drainStream(t, data[:off], -1)
			if term2 != io.EOF {
				t.Fatalf("clean prefix [:%d] did not end cleanly: %v", off, term2)
			}
			if recs2 != recs || skipped2 != skipped || off2 != off {
				t.Fatalf("clean prefix not a fixed point: records %d→%d, skips %d→%d, offset %d→%d",
					recs, recs2, skipped, skipped2, off, off2)
			}
		}

		// A budgeted reader sees a prefix of the unlimited reader's
		// stream and trips after exactly budget+1 unknown or malformed
		// records, however many unsupported ones it skipped.
		const budget = 2
		brecs, _, bspent, boff, bterm := drainStream(t, data, budget)
		if boff > off || brecs > recs {
			t.Fatalf("budgeted run overran unlimited run: offset %d>%d, records %d>%d", boff, off, brecs, recs)
		}
		if errors.Is(bterm, mrt.ErrBudgetExhausted) != (spent > budget) {
			t.Fatalf("budget %d with %d unknown or malformed records ended with %v", budget, spent, bterm)
		}
		if errors.Is(bterm, mrt.ErrBudgetExhausted) && bspent != budget {
			t.Fatalf("budget %d tripped after %d budgeted skips, want %d", budget, bspent, budget)
		}
	})
}
