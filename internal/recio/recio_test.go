package recio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testHeader() Header {
	return Header{
		Experiment:   "fig2",
		Cells:        1400,
		Groups:       7,
		Shard:        1,
		Shards:       3,
		CellLo:       466,
		CellHi:       933,
		MatrixDigest: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		Tool:         "recio_test",
		Seed:         42,
		Workers:      8,
	}
}

// writeTestFile builds a stream of n records with a checkpoint every
// `every` records and returns the encoded bytes plus the payloads.
func writeTestFile(t *testing.T, n, every int) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := fmt.Appendf(nil, `{"pollution":%d,"weight_frac":0.%06d}`, i*37%1000, i)
		payloads = append(payloads, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), payloads
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRoundTrip: header and every record survive encode → strict
// decode, across several checkpoint cadences (including none mid-run).
func TestRoundTrip(t *testing.T) {
	for _, every := range []int{1, 7, 100, 1 << 30} {
		data, want := writeTestFile(t, 100, every)
		hdr, got, err := Decode(data)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if hdr.Format != formatVersion {
			t.Errorf("every=%d: header format %d", every, hdr.Format)
		}
		wantHdr := testHeader()
		wantHdr.Format = formatVersion
		wantHdr.Level = DefaultLevel
		if hdr != wantHdr {
			t.Errorf("every=%d: header %+v != %+v", every, hdr, wantHdr)
		}
		if !samePayloads(got, want) {
			t.Errorf("every=%d: %d payloads decoded, want %d (or contents differ)", every, len(got), len(want))
		}
	}
}

// TestEmptyStream: a header-only file (zero records) round-trips.
func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, payloads, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 0 || hdr.Experiment != "fig2" {
		t.Fatalf("got %d payloads, header %+v", len(payloads), hdr)
	}
}

// TestRecoverEveryTruncation: for every possible truncation length the
// recovered records must be a checkpoint-aligned prefix, the clean size
// must never exceed the truncation, and re-recovering the clean prefix
// must be a fixed point.
func TestRecoverEveryTruncation(t *testing.T) {
	const n, every = 60, 7
	data, want := writeTestFile(t, n, every)
	headerEnd := -1
	for cut := 0; cut <= len(data); cut++ {
		hdr, got, clean, err := RecoverFileBytes(t, data[:cut])
		if err != nil {
			// Unreadable magic/header: only legal before the header ends.
			if headerEnd >= 0 && cut >= headerEnd {
				t.Fatalf("cut=%d: unexpected recover error after header: %v", cut, err)
			}
			continue
		}
		if headerEnd < 0 {
			headerEnd = cut
		}
		if hdr.Experiment != "fig2" {
			t.Fatalf("cut=%d: header %+v", cut, hdr)
		}
		if clean > int64(cut) {
			t.Fatalf("cut=%d: clean size %d beyond data", cut, clean)
		}
		if len(got)%every != 0 && len(got) != n {
			t.Fatalf("cut=%d: %d records recovered, not checkpoint-aligned (every=%d)", cut, len(got), every)
		}
		if !samePayloads(got, want[:len(got)]) {
			t.Fatalf("cut=%d: recovered records are not a prefix", cut)
		}
		// Idempotence: the clean prefix recovers to exactly itself.
		_, again, clean2, err := RecoverFileBytes(t, data[:clean])
		if err != nil || clean2 != clean || !samePayloads(again, got) {
			t.Fatalf("cut=%d: clean prefix not a fixed point (err=%v clean=%d→%d records %d→%d)",
				cut, err, clean, clean2, len(got), len(again))
		}
	}
	if headerEnd < 0 {
		t.Fatal("recover never succeeded")
	}
}

// RecoverFileBytes adapts Recover for table-style tests.
func RecoverFileBytes(t *testing.T, data []byte) (Header, [][]byte, int64, error) {
	t.Helper()
	return Recover(data)
}

// TestCorruption: flipping any single byte must never panic, and the
// strict decoder must either error or (only for bytes inside ignored
// gzip redundancy) still yield the exact records.
func TestCorruption(t *testing.T) {
	data, want := writeTestFile(t, 24, 8)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		hdr, got, err := Decode(mut)
		if err != nil {
			continue
		}
		if i >= len(magic) && hdr.Experiment != "fig2" {
			t.Fatalf("byte %d: corrupt decode succeeded with header %+v", i, hdr)
		}
		if !samePayloads(got, want) {
			t.Fatalf("byte %d: corrupt decode succeeded with wrong records", i)
		}
	}
}

// TestStrictDecodeRejectsTruncation: Decode (unlike Recover) must
// refuse any file whose *body* has a damaged tail. (Truncation confined
// to the trailer region is tolerated — the trailer is advisory.)
func TestStrictDecodeRejectsTruncation(t *testing.T) {
	data, _ := writeTestFile(t, 20, 5)
	rec, err := RecoverStats(data)
	if err != nil || !rec.ViaIndex {
		t.Fatalf("baseline: err=%v viaIndex=%v", err, rec.ViaIndex)
	}
	if _, _, err := Decode(data[:rec.CleanSize-3]); err == nil {
		t.Fatal("strict decode accepted a body-truncated file")
	}
}

// TestOversizedLength: a length prefix claiming more than MaxPayload
// must error out (ErrTooLarge) without allocating the claimed size.
func TestOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic)
	// Header frame claiming 2^62 bytes.
	buf.Write([]byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f})
	if _, _, err := Decode(buf.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// TestBadMagic: foreign files are rejected up front.
func TestBadMagic(t *testing.T) {
	if _, _, err := Decode([]byte(`{"experiment":"fig2"}`)); !errors.Is(err, ErrMagic) {
		t.Fatalf("got %v, want ErrMagic", err)
	}
	// Version 1 (the retired trailer-less row format) is as foreign as
	// any unknown version byte.
	for _, version := range []byte{1, 99} {
		bad := append([]byte{}, magic...)
		bad[len(bad)-1] = version
		if _, _, err := Decode(append(bad, 0)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", version, err)
		}
	}
}

// TestResumeWriter: recover a truncated file, truncate to the clean
// size, append through ResumeWriter — the final file must decode to the
// full record sequence, and carry a trailer covering all of it.
func TestResumeWriter(t *testing.T) {
	const n, every = 40, 6
	data, want := writeTestFile(t, n, every)

	path := filepath.Join(t.TempDir(), "shard.rec")
	cut := len(data) * 2 / 3
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverStatsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(rec.CleanSize); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(rec.CleanSize, 0); err != nil {
		t.Fatal(err)
	}
	w, err := ResumeWriter(f, Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := rec.Records; i < n; i++ {
		if err := w.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, got, err := Decode(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Experiment != "fig2" || !samePayloads(got, want) {
		t.Fatalf("resumed file decodes to %d records (want %d)", len(got), n)
	}
	// The regrown trailer must index the whole body, including the
	// segments written before the crash.
	again, err := RecoverStatsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !again.ViaIndex || again.Records != n {
		t.Fatalf("resumed file: ViaIndex=%v records=%d, want index covering %d",
			again.ViaIndex, again.Records, n)
	}
}

// writeDiskFile writes n records with a checkpoint cadence to a real
// file (so the writer can rewind over its trailer) and returns the
// path plus the payloads.
func writeDiskFile(t *testing.T, n, every int, opts Options) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.rec")
	w, f, err := Create(path, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := fmt.Appendf(nil, `{"pollution":%d,"weight_frac":0.%06d}`, i*37%1000, i)
		payloads = append(payloads, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, payloads
}

// TestTrailerSeekRecovery: an intact v2 file resolves its record count
// through the index (ViaIndex), and the clean size it reports excludes
// the trailer — truncating there and rescanning finds the same records.
func TestTrailerSeekRecovery(t *testing.T) {
	const n, every = 60, 7
	path, _ := writeDiskFile(t, n, every, Options{})
	rec, err := RecoverStatsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.ViaIndex {
		t.Fatal("intact v2 file recovered via scan, want index")
	}
	if rec.Records != n {
		t.Fatalf("index counted %d records, want %d", rec.Records, n)
	}
	wantSegs := n/every + 1 // n%every != 0 ⇒ Close seals a short tail segment
	if len(rec.Segments) != wantSegs {
		t.Fatalf("index holds %d segments, want %d", len(rec.Segments), wantSegs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CleanSize >= int64(len(data)) {
		t.Fatalf("clean size %d does not exclude the %d-byte trailer region",
			rec.CleanSize, int64(len(data))-rec.CleanSize)
	}
	_, payloads, clean, err := Recover(data[:rec.CleanSize])
	if err != nil || clean != rec.CleanSize || len(payloads) != n {
		t.Fatalf("body prefix rescans to %d records / clean %d (err=%v), want %d / %d",
			len(payloads), clean, err, n, rec.CleanSize)
	}
}

// TestDamagedTrailerDegrades pins the back-compat contract of satellite
// concern #4: any damage confined to the trailer region must degrade
// every reader to the scan path — full strict decode still succeeds,
// recovery still counts every record — and must never surface as an
// error.
func TestDamagedTrailerDegrades(t *testing.T) {
	const n, every = 30, 8
	path, want := writeDiskFile(t, n, every, Options{})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverStats(data)
	if err != nil || !rec.ViaIndex {
		t.Fatalf("baseline: err=%v viaIndex=%v", err, rec.ViaIndex)
	}
	bodyEnd := rec.CleanSize

	damage := map[string]func([]byte) []byte{
		"truncated footer": func(d []byte) []byte { return d[:len(d)-5] },
		"truncated mid-index": func(d []byte) []byte {
			return d[:bodyEnd+(int64(len(d))-bodyEnd)/2]
		},
		"corrupt index entry": func(d []byte) []byte {
			d[bodyEnd+3] ^= 0x5a
			return d
		},
		"footer offset past EOF": func(d []byte) []byte {
			copy(d[len(d)-footerSize:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
			return d
		},
		"footer offset into body": func(d []byte) []byte {
			copy(d[len(d)-footerSize:], []byte{1, 0, 0, 0, 0, 0, 0, 0})
			return d
		},
	}
	for name, mut := range damage {
		d := mut(append([]byte(nil), data...))
		hdr, got, err := Decode(d)
		if err != nil {
			t.Errorf("%s: strict decode errored (%v), want scan-path fallback", name, err)
			continue
		}
		if hdr.Experiment != "fig2" || !samePayloads(got, want) {
			t.Errorf("%s: decode lost records (%d of %d)", name, len(got), len(want))
		}
		r, err := RecoverStats(d)
		if err != nil {
			t.Errorf("%s: RecoverStats errored: %v", name, err)
			continue
		}
		if r.ViaIndex {
			t.Errorf("%s: damaged trailer still classified as usable index", name)
		}
		if r.Records != n {
			t.Errorf("%s: scan fallback counted %d records, want %d", name, r.Records, n)
		}
	}
}

// TestDamagedBodySegmentKeepsIndexPrefix: when an indexed segment's
// bytes no longer match their recorded CRC, seek-recovery keeps the
// provably-clean prefix before it instead of trusting the index.
func TestDamagedBodySegmentKeepsIndexPrefix(t *testing.T) {
	const n, every = 40, 10
	path, _ := writeDiskFile(t, n, every, Options{})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverStats(data)
	if err != nil || len(rec.Segments) < 2 {
		t.Fatalf("baseline: err=%v segments=%d", err, len(rec.Segments))
	}
	hurt := rec.Segments[1]
	data[hurt.Offset+2] ^= 0x5a
	r, err := RecoverStats(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ViaIndex || r.Records != every || r.CleanSize != rec.Segments[0].end() {
		t.Fatalf("got viaIndex=%v records=%d clean=%d, want index prefix of %d records ending %d",
			r.ViaIndex, r.Records, r.CleanSize, every, rec.Segments[0].end())
	}
}

// TestParallelWriterDeterminism: the same records produce bit-identical
// files at every worker count and flush cadence — the written order is
// the seal order regardless of which worker finishes first.
func TestParallelWriterDeterminism(t *testing.T) {
	encode := func(workers, flushEvery int) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testHeader(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := w.Append(fmt.Appendf(nil, `{"pollution":%d,"weight_frac":0.%06d}`, i%13, i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%flushEvery == 0 {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, flushEvery := range []int{3, 50} {
		want := encode(1, flushEvery)
		for _, workers := range []int{2, 8} {
			if got := encode(workers, flushEvery); !bytes.Equal(got, want) {
				t.Errorf("flushEvery=%d: %d workers produced different bytes than 1 worker",
					flushEvery, workers)
			}
		}
	}
}

// TestWriterLevelValidation: out-of-range gzip levels are rejected at
// writer construction.
func TestWriterLevelValidation(t *testing.T) {
	for _, level := range []int{-1, 10, 42} {
		var buf bytes.Buffer
		if _, err := NewWriter(&buf, testHeader(), Options{Level: level}); !errors.Is(err, ErrLevel) {
			t.Errorf("level %d: got %v, want ErrLevel", level, err)
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), Options{Level: 9})
	if err != nil {
		t.Fatalf("level 9 rejected: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, _, err := Decode(buf.Bytes())
	if err != nil || hdr.Level != 9 {
		t.Fatalf("header level %d (err=%v), want 9", hdr.Level, err)
	}
}

// columnarHeader is testHeader with the columnar layout for two fields
// shaped like hijack.Record.
func columnarHeader() Header {
	h := testHeader()
	h.Layout = LayoutColumns
	h.Fields = FieldsSpec([]Field{
		{Name: "pollution", Kind: KindDelta},
		{Name: "weight_frac", Kind: KindFloat},
	})
	return h
}

// TestColumnarRoundTrip: per-field values survive encode → decode
// exactly (floats by their bit patterns), across checkpoint cadences,
// with and without the trailer index.
func TestColumnarRoundTrip(t *testing.T) {
	const n = 100
	var buf bytes.Buffer
	w, err := NewWriter(&buf, columnarHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantPol, wantWeight []uint64
	for i := 0; i < n; i++ {
		pol := uint64(i * 7 % 13)
		weight := uint64(i) * 0x9e3779b97f4a7c15 // arbitrary bit patterns
		wantPol = append(wantPol, pol)
		wantWeight = append(wantWeight, weight)
		if err := w.AppendRow([]uint64{pol, weight}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%33 == 0 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	noIdx := append([]byte(nil), data...)
	noIdx[len(noIdx)-3] ^= 0x5a // damage the footer: scan fallback
	for name, d := range map[string][]byte{"indexed": data, "scan": noIdx} {
		hdr, cols, err := DecodeColumns(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hdr.Layout != LayoutColumns || len(cols) != 2 {
			t.Fatalf("%s: layout %q, %d columns", name, hdr.Layout, len(cols))
		}
		for i := range wantPol {
			if cols[0][i] != wantPol[i] || cols[1][i] != wantWeight[i] {
				t.Fatalf("%s: record %d: got (%d,%#x) want (%d,%#x)",
					name, i, cols[0][i], cols[1][i], wantPol[i], wantWeight[i])
			}
		}
	}
	// Single-column read inflates only that field and still sees all
	// values.
	weights, err := ReadColumn(data, "weight_frac")
	if err != nil || len(weights) != n {
		t.Fatalf("ReadColumn: %d values, err=%v", len(weights), err)
	}
	for i := range weights {
		if weights[i] != wantWeight[i] {
			t.Fatalf("ReadColumn value %d: %#x want %#x", i, weights[i], wantWeight[i])
		}
	}
	if _, err := ReadColumn(data, "nope"); err == nil {
		t.Fatal("ReadColumn accepted an unknown field")
	}
	// Layout mismatches are loud, both ways.
	if _, _, err := Decode(data); !errors.Is(err, ErrLayout) {
		t.Fatalf("row Decode of a columnar file: %v, want ErrLayout", err)
	}
	rowData, _ := writeTestFile(t, 5, 2)
	if _, _, err := DecodeColumns(rowData); !errors.Is(err, ErrLayout) {
		t.Fatalf("DecodeColumns of a row file: %v, want ErrLayout", err)
	}
}

// TestColumnarWriterAPI: the two append entry points refuse the wrong
// layout.
func TestColumnarWriterAPI(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, columnarHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("{}")); !errors.Is(err, ErrLayout) {
		t.Fatalf("Append on columnar writer: %v, want ErrLayout", err)
	}
	var buf2 bytes.Buffer
	w2, err := NewWriter(&buf2, testHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendRow([]uint64{1, 2}); !errors.Is(err, ErrLayout) {
		t.Fatalf("AppendRow on row writer: %v, want ErrLayout", err)
	}
}

// TestColumnarResume: a crash-truncated columnar file resumes like a
// row file — recover stats, truncate, append the remaining rows.
func TestColumnarResume(t *testing.T) {
	const n = 90
	path := filepath.Join(t.TempDir(), "col.rec")
	w, f, err := Create(path, columnarHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.AppendRow([]uint64{uint64(i % 11), uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%30 == 0 && i+1 < n {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 59 { // "crash" with one checkpointed segment pair durable
			break
		}
	}
	// Simulate the crash: drop the writer without Close; the file holds
	// what the last Checkpoint wrote (body + trailer).
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverStatsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.ViaIndex || rec.Records != 60 {
		t.Fatalf("recovered viaIndex=%v records=%d, want index with 60", rec.ViaIndex, rec.Records)
	}
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fh.Truncate(rec.CleanSize); err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Seek(rec.CleanSize, 0); err != nil {
		t.Fatal(err)
	}
	w2, err := ResumeWriter(fh, Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := rec.Records; i < n; i++ {
		if err := w2.AppendRow([]uint64{uint64(i % 11), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	_, cols, err := DecodeColumnsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols[0]) != n {
		t.Fatalf("resumed columnar file holds %d records, want %d", len(cols[0]), n)
	}
	for i := 0; i < n; i++ {
		if cols[0][i] != uint64(i%11) || cols[1][i] != uint64(i) {
			t.Fatalf("record %d: (%d,%d)", i, cols[0][i], cols[1][i])
		}
	}
}

// TestFieldsSpecRoundTrip: the header field-map spelling inverts.
func TestFieldsSpecRoundTrip(t *testing.T) {
	fields := []Field{{"a", KindDelta}, {"b", KindRLE}, {"c", KindFloat}}
	spec := FieldsSpec(fields)
	got, err := ParseFields(spec)
	if err != nil || len(got) != len(fields) {
		t.Fatalf("ParseFields(%q): %v", spec, err)
	}
	for i := range fields {
		if got[i] != fields[i] {
			t.Fatalf("field %d: %+v != %+v", i, got[i], fields[i])
		}
	}
	for _, bad := range []string{"", "a", "a:", "a:nope", ":delta"} {
		if _, err := ParseFields(bad); err == nil {
			t.Errorf("ParseFields(%q) accepted", bad)
		}
	}
}

// TestSameWorkload: identity fields gate resume/merge; provenance must
// not.
func TestSameWorkload(t *testing.T) {
	a := testHeader()
	b := a
	b.Tool, b.Seed, b.Workers = "other", 7, 1
	if !a.SameWorkload(b) {
		t.Error("provenance fields must not affect workload identity")
	}
	b = a
	b.MatrixDigest = "ffff"
	if a.SameWorkload(b) {
		t.Error("digest mismatch not detected")
	}
	if msg := a.DescribeMismatch(b); msg == "headers match" {
		t.Error("DescribeMismatch found nothing")
	}
}
