package recio

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// FuzzDecode drives both decoders over arbitrary bytes. The properties
// under test are the frame codec's safety guarantees: truncated frames,
// corrupted CRCs and oversized varint lengths must come back as errors —
// never a panic, never an allocation sized by a corrupt length prefix —
// and the two decoders must agree with each other:
//
//  1. Recover errors only when Decode does (both require a readable
//     magic + header; Recover tolerates everything after).
//  2. Recover's clean size never exceeds the input length.
//  3. The clean prefix is a fixed point: recovering data[:clean] yields
//     the same header, records and clean size.
//  4. If strict Decode succeeds, Recover must return identical records
//     (the clean size may be smaller than the input — a v2 trailer is
//     not body).
//  5. RecoverStats never errors when Recover succeeds. Through the scan
//     path it agrees with Recover exactly; through the index it may
//     stop earlier (the segment CRC is stricter than gzip's own
//     redundancy) but never claims more than the scan proves.
//
// Columnar files — the layout shard files use — get their own party,
// between the strict DecodeColumns and the resume path's RecoverStats:
//
//  6. DecodeColumns succeeds only where RecoverStats does, and then
//     RecoverStats reports the same header and exactly its record count.
//  7. RecoverStats' clean size lies within the input, and the clean
//     prefix is a fixed point: recovering data[:clean] reports the same
//     header, records and clean size, and strictly decodes to that many
//     records.
//  8. ReadColumn never panics, and where DecodeColumns succeeds it
//     returns exactly each decoded column (for a repeated name, the
//     last column of that name, which is the one it reads).
func FuzzDecode(f *testing.F) {
	// Valid small file: header plus two checkpointed segments, ending in
	// a v2 index trailer.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Experiment: "seed", Cells: 4, Groups: 1, Shards: 1, CellHi: 4,
		MatrixDigest: "d1"}, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(fmt.Appendf(nil, `{"pollution":%d}`, i)); err != nil {
			f.Fatal(err)
		}
		if i == 1 {
			if err := w.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	rec, err := RecoverStats(valid)
	if err != nil || !rec.ViaIndex {
		f.Fatalf("seed file has no usable index: %v", err)
	}
	bodyEnd := int(rec.CleanSize)

	f.Add(valid)
	f.Add(valid[:bodyEnd])              // trailer stripped: pure body
	f.Add(valid[:len(valid)-5])         // truncated footer
	f.Add(valid[:bodyEnd+3])            // truncated mid-index-frame
	f.Add(valid[:len(magic)+3])         // truncated header frame
	f.Add([]byte("recio"))              // bare magic, no version
	f.Add([]byte{})                     // empty input
	f.Add([]byte(`{"experiment":"x"}`)) // JSON masquerading as recio
	corrupt := append([]byte(nil), valid...)
	corrupt[bodyEnd-3] ^= 0xff // CRC damage in the last body segment
	f.Add(corrupt)
	badEntry := append([]byte(nil), valid...)
	badEntry[bodyEnd+4] ^= 0x5a // corrupt index entry under an intact footer
	f.Add(badEntry)
	pastEOF := append([]byte(nil), valid...)
	copy(pastEOF[len(pastEOF)-16:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // footer offset past EOF
	f.Add(pastEOF)
	huge := append([]byte(nil), magic...)
	huge = append(huge, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f) // 2^62-byte header claim
	f.Add(huge)

	// Valid columnar file: the same two checkpointed segments, as columns.
	buf.Reset()
	w, err = NewWriter(&buf, columnarHeader(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.AppendRow([]uint64{uint64(i * 7), uint64(i) << 52}); err != nil {
			f.Fatal(err)
		}
		if i == 1 {
			if err := w.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	cols := buf.Bytes()
	crec, err := RecoverStats(cols)
	if err != nil || !crec.ViaIndex {
		f.Fatalf("columnar seed file has no usable index: %v", err)
	}
	f.Add(cols)
	f.Add(cols[:crec.CleanSize])   // trailer stripped
	f.Add(cols[:crec.CleanSize-4]) // truncated mid-segment
	f.Add(cols[:crec.CleanSize+3]) // truncated mid-index-frame
	colCorrupt := append([]byte(nil), cols...)
	colCorrupt[crec.CleanSize-3] ^= 0xff // damage in the last segment's columns
	f.Add(colCorrupt)
	// Record counts no inflated member backs: a scan segment declaring
	// 2^27 records in under 100 bytes, and an index entry claiming 2^27
	// for a two-record segment.
	f.Add(scanCountCrasher(f))
	f.Add(indexCountCrasher(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if hdr, _, err := ReadHeader(data); err == nil && hdr.Layout == LayoutColumns {
			fuzzColumns(t, data)
			return
		}
		hdr, recs, decodeErr := Decode(data)
		rhdr, rrecs, clean, recoverErr := Recover(data)
		if (recoverErr == nil) != (decodeErr == nil) && decodeErr == nil {
			t.Fatalf("Decode ok but Recover failed: %v", recoverErr)
		}
		if recoverErr != nil {
			return
		}
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean size %d outside [0,%d]", clean, len(data))
		}
		if decodeErr == nil {
			if len(recs) != len(rrecs) || hdr != rhdr {
				t.Fatalf("strict/recover disagree on a fully valid file: records=%d/%d",
					len(recs), len(rrecs))
			}
		}
		stats, statsErr := RecoverStats(data)
		if statsErr != nil {
			t.Fatalf("Recover ok but RecoverStats failed: %v", statsErr)
		}
		if stats.Header != rhdr {
			t.Fatalf("RecoverStats header disagrees with Recover")
		}
		if stats.ViaIndex {
			if stats.Records > len(rrecs) || stats.CleanSize > clean {
				t.Fatalf("index recovery claims more than the scan proves: records=%d/%d clean=%d/%d",
					stats.Records, len(rrecs), stats.CleanSize, clean)
			}
		} else if stats.Records != len(rrecs) || stats.CleanSize != clean {
			t.Fatalf("scan RecoverStats disagrees with Recover: records=%d/%d clean=%d/%d",
				stats.Records, len(rrecs), stats.CleanSize, clean)
		}
		hdr2, rrecs2, clean2, err2 := Recover(data[:clean])
		if err2 != nil || clean2 != clean || len(rrecs2) != len(rrecs) || hdr2 != rhdr {
			t.Fatalf("clean prefix not a fixed point: err=%v clean=%d→%d records=%d→%d",
				err2, clean, clean2, len(rrecs), len(rrecs2))
		}
		for i := range rrecs {
			if !bytes.Equal(rrecs[i], rrecs2[i]) {
				t.Fatalf("record %d differs across recover passes", i)
			}
		}
	})
}

// fuzzColumns checks properties 6 to 8 on one columnar input.
func fuzzColumns(t *testing.T, data []byte) {
	hdr, cols, decodeErr := DecodeColumns(data)
	if fields, err := ParseFields(hdr.Fields); err == nil {
		for i, f := range fields {
			vals, err := ReadColumn(data, f.Name)
			last := !slices.ContainsFunc(fields[i+1:], func(g Field) bool { return g.Name == f.Name })
			if decodeErr == nil && last && (err != nil || !slices.Equal(vals, cols[i])) {
				t.Fatalf("ReadColumn(%q) disagrees with DecodeColumns: %v", f.Name, err)
			}
		}
	}
	stats, err := RecoverStats(data)
	if err != nil {
		if decodeErr == nil {
			t.Fatalf("DecodeColumns ok but RecoverStats failed: %v", err)
		}
		return
	}
	if stats.CleanSize < 0 || stats.CleanSize > int64(len(data)) {
		t.Fatalf("clean size %d outside [0,%d]", stats.CleanSize, len(data))
	}
	if decodeErr == nil && (stats.Header != hdr || stats.Records != rows(cols)) {
		t.Fatalf("DecodeColumns and RecoverStats disagree on a valid file: records=%d/%d",
			rows(cols), stats.Records)
	}
	again, err := RecoverStats(data[:stats.CleanSize])
	if err != nil || again.Header != stats.Header || again.Records != stats.Records || again.CleanSize != stats.CleanSize {
		t.Fatalf("clean prefix not a fixed point: err=%v records=%d→%d clean=%d→%d",
			err, stats.Records, again.Records, stats.CleanSize, again.CleanSize)
	}
	if _, prefix, err := DecodeColumns(data[:stats.CleanSize]); err != nil || rows(prefix) != stats.Records {
		t.Fatalf("clean prefix does not decode strictly: err=%v records=%d/%d", err, rows(prefix), stats.Records)
	}
}

// rows counts the records in decoded columns.
func rows(cols [][]uint64) int {
	if len(cols) == 0 {
		return 0
	}
	return len(cols[0])
}
