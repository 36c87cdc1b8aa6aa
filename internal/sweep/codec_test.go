package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/recio"
)

// count is the codec tests' record: one polluted-AS count, with the
// one-column mapping the recio format needs.
type count int

func (count) ColumnFields() []recio.Field {
	return []recio.Field{{Name: "polluted", Kind: recio.KindDelta}}
}

func (c count) ColumnValues() []uint64 { return []uint64{uint64(c)} }

func (c *count) SetColumnValues(vals []uint64) { *c = count(vals[0]) }

func extractCount(_, _ int, o *core.Outcome) count { return count(o.PollutedCount()) }

// countDigest is runDigest over a count stream.
func countDigest(v []count) [32]byte {
	ints := make([]int, len(v))
	for i, c := range v {
		ints[i] = int(c)
	}
	return runDigest(ints)
}

// TestMatrixDigestIdentity: the digest is deterministic for one
// workload and moves when the workload does — a different attack set, a
// different blocked set, or a different policy all change it.
func TestMatrixDigestIdentity(t *testing.T) {
	m, _ := testMatrix(t)
	d1, d2 := MatrixDigest(m), MatrixDigest(m)
	if d1 != d2 || len(d1) != 64 {
		t.Fatalf("digest not deterministic: %q vs %q", d1, d2)
	}

	shifted := m
	shifted.Job = func(_, k int) (core.Attack, core.Defense) {
		return core.Attack{Target: 1, Attacker: k + 1}, core.Defense{}
	}
	if MatrixDigest(shifted) == d1 {
		t.Error("different attacks, same digest")
	}

	sub := m
	sub.Job = func(_, k int) (core.Attack, core.Defense) {
		return core.Attack{Target: 0, Attacker: k + 1, SubPrefix: true}, core.Defense{}
	}
	if MatrixDigest(sub) == d1 {
		t.Error("sub-prefix attacks, same digest")
	}

	blocked := asn.NewIndexSet(m.Policy(0).N())
	blocked.Add(2)
	defended := m
	defended.Job = func(_, k int) (core.Attack, core.Defense) {
		return core.Attack{Target: 0, Attacker: k + 1}, core.RovOnly(blocked)
	}
	if MatrixDigest(defended) == d1 {
		t.Error("different blocked set, same digest")
	}

	swapped := m
	swapped.Policy = func(int) *core.Policy { return m.Policy(0) }
	if MatrixDigest(swapped) == d1 {
		t.Error("different policy assignment, same digest")
	}

	probed, reprobed := m, m
	probed.Ident, reprobed.Ident = []byte{1, 2}, []byte{1, 3}
	if dp := MatrixDigest(probed); dp == d1 || dp == MatrixDigest(reprobed) {
		t.Error("a different Ident left the digest unchanged")
	}
}

// TestCodecRoundTrip: both codecs reproduce a solved shard exactly —
// metadata, digest and every record — and ReadShardAuto dispatches to
// the right one by extension.
func TestCodecRoundTrip(t *testing.T) {
	m, _ := testMatrix(t)
	extract := extractCount
	sf, err := RunShard(m, MatrixOptions{Workers: 4, Sel: OneShard(1, 3)}, "codec-test", extract)
	if err != nil {
		t.Fatal(err)
	}
	if sf.MatrixDigest == "" {
		t.Fatal("RunShard left MatrixDigest empty")
	}
	dir := t.TempDir()
	for _, name := range []string{FormatJSON, FormatRecio} {
		codec, err := CodecFor[count](name, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := ShardPath(dir, "codec-test", 1, 3, codec.Ext())
		if err := codec.WriteShard(path, sf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt, err := ReadShardAuto[count](path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rt.Experiment != sf.Experiment || rt.Cells != sf.Cells || rt.Groups != sf.Groups ||
			rt.Shard != sf.Shard || rt.Shards != sf.Shards ||
			rt.CellLo != sf.CellLo || rt.CellHi != sf.CellHi || rt.MatrixDigest != sf.MatrixDigest {
			t.Fatalf("%s: metadata did not round-trip: %+v", name, rt)
		}
		if rt.Path != path || rt.Line < 1 {
			t.Fatalf("%s: reader left location unset: %q:%d", name, rt.Path, rt.Line)
		}
		if len(rt.Records) != len(sf.Records) {
			t.Fatalf("%s: %d records, want %d", name, len(rt.Records), len(sf.Records))
		}
		for i := range rt.Records {
			if rt.Records[i] != sf.Records[i] {
				t.Fatalf("%s: record %d = %d, want %d", name, i, rt.Records[i], sf.Records[i])
			}
		}
	}
}

// TestPersistShardBothFormats: PersistShard's files — json and recio —
// merge back into exactly the unsharded stream, across a multi-shard
// split.
func TestPersistShardBothFormats(t *testing.T) {
	m, cells := testMatrix(t)
	extract := extractCount

	want := make([]count, 0, cells)
	if err := RunMatrixReduce(m, MatrixOptions{Workers: 4}, extract, ReduceFunc[count]{
		EmitFn: func(_ int, v count) { want = append(want, v) },
	}); err != nil {
		t.Fatal(err)
	}

	const shards = 3
	for _, format := range []string{FormatJSON, FormatRecio} {
		dir := t.TempDir()
		for _, s := range []int{2, 0, 1} {
			rep, err := PersistShard(m, MatrixOptions{Workers: 2, Sel: OneShard(s, shards)},
				"persist-test", extract, ShardStore{Dir: dir, Format: format, CheckpointEvery: 16})
			if err != nil {
				t.Fatalf("%s shard %d: %v", format, s, err)
			}
			lo, hi := ShardRange(cells, s, shards)
			if rep.Solved != hi-lo || rep.Resumed != 0 {
				t.Fatalf("%s shard %d: report %+v, want %d solved", format, s, rep, hi-lo)
			}
		}
		files, err := ReadShardDir[count](dir, "persist-test")
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got := make([]count, 0, cells)
		if err := MergeShards(files, "persist-test", MatrixDigest(m), ReduceFunc[count]{
			EmitFn: func(_ int, v count) { got = append(got, v) },
		}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if countDigest(got) != countDigest(want) {
			t.Fatalf("%s: merged stream diverges from unsharded run", format)
		}
	}
}

// TestPersistShardResume is the crash/recovery acceptance test: a recio
// shard run killed mid-run (simulated by truncating the file inside a
// segment) and restarted with Resume picks up from its last checkpoint
// and produces a shard whose merged output is byte-identical to an
// uninterrupted run.
func TestPersistShardResume(t *testing.T) {
	m, cells := testMatrix(t)
	extract := extractCount
	dir := t.TempDir()
	store := ShardStore{Dir: dir, Format: FormatRecio, CheckpointEvery: 16}

	// Uninterrupted reference shard.
	rep, err := PersistShard(m, MatrixOptions{Workers: 4, Sel: OneShard(0, 2)}, "resume-test", extract, store)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReadShardAuto[count](rep.Path)
	if err != nil {
		t.Fatal(err)
	}

	// Kill: keep only 60% of the bytes, slicing through a segment.
	if err := os.WriteFile(rep.Path, full[:len(full)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}
	store.Resume = true
	rep2, err := PersistShard(m, MatrixOptions{Workers: 4, Sel: OneShard(0, 2)}, "resume-test", extract, store)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed == 0 || rep2.Solved == 0 {
		t.Fatalf("resume did neither recover nor solve: %+v", rep2)
	}
	if rep2.Resumed+rep2.Solved != ref.CellHi-ref.CellLo {
		t.Fatalf("resumed %d + solved %d != %d cells", rep2.Resumed, rep2.Solved, ref.CellHi-ref.CellLo)
	}
	got, err := ReadShardAuto[count](rep2.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(ref.Records) {
		t.Fatalf("resumed shard has %d records, want %d", len(got.Records), len(ref.Records))
	}
	for i := range got.Records {
		if got.Records[i] != ref.Records[i] {
			t.Fatalf("record %d = %d, want %d", i, got.Records[i], ref.Records[i])
		}
	}

	// Resuming a complete shard is a no-op that re-reports the records.
	rep3, err := PersistShard(m, MatrixOptions{Workers: 4, Sel: OneShard(0, 2)}, "resume-test", extract, store)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Solved != 0 || rep3.Resumed != ref.CellHi-ref.CellLo {
		t.Fatalf("complete shard re-solved: %+v", rep3)
	}
	_ = cells
}

// TestPersistShardResumeWrongWorkload: a shard file from a different
// workload must refuse to resume, naming the digest mismatch.
func TestPersistShardResumeWrongWorkload(t *testing.T) {
	m, _ := testMatrix(t)
	extract := extractCount
	dir := t.TempDir()
	store := ShardStore{Dir: dir, Format: FormatRecio}
	if _, err := PersistShard(m, MatrixOptions{Workers: 2}, "wrong-world", extract, store); err != nil {
		t.Fatal(err)
	}

	other := m
	other.Job = func(_, k int) (core.Attack, core.Defense) {
		return core.Attack{Target: 1, Attacker: k + 1}, core.Defense{}
	}
	store.Resume = true
	_, err := PersistShard(other, MatrixOptions{Workers: 2}, "wrong-world", extract, store)
	if err == nil || !strings.Contains(err.Error(), "cannot resume") || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("resume onto a different workload: err = %v, want digest mismatch", err)
	}
}

// TestPersistShardResumeNeedsRecio: json shards cannot resume.
func TestPersistShardResumeNeedsRecio(t *testing.T) {
	m, _ := testMatrix(t)
	extract := extractCount
	_, err := PersistShard(m, MatrixOptions{}, "x", extract,
		ShardStore{Dir: t.TempDir(), Format: FormatJSON, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "recio") {
		t.Fatalf("json resume accepted: %v", err)
	}
}

// TestMergeShardsDigestMismatch covers the mixed-digest merge: shards
// produced from different worlds must abort the merge with a file:line
// diagnostic, a shard set disagreeing with the rebuilt workload's digest
// must abort too, and so must a shard without a digest or a merge with no
// digest to check against.
func TestMergeShardsDigestMismatch(t *testing.T) {
	mk := func(lo, hi int, digest, path string) *ShardFile[int] {
		return &ShardFile[int]{Experiment: "e", Cells: 10, Groups: 1, Shards: 2,
			CellLo: lo, CellHi: hi, MatrixDigest: digest,
			Records: make([]int, hi-lo), Path: path, Line: 9}
	}
	sink := ReduceFunc[int]{EmitFn: func(int, int) {}}

	// Shards disagree with each other.
	mixed := []*ShardFile[int]{mk(0, 5, "aaaa", "a.rec"), mk(5, 10, "bbbb", "b.json")}
	err := MergeShards(mixed, "e", "aaaa", sink)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("mixed digests accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "b.json:9") {
		t.Fatalf("diagnostic %q does not point at the offending file:line", err)
	}

	// Shards agree with each other but not with the rebuilt workload.
	stale := []*ShardFile[int]{mk(0, 5, "aaaa", "a.rec"), mk(5, 10, "aaaa", "b.json")}
	err = MergeShards(stale, "e", "cccc", sink)
	if err == nil || !strings.Contains(err.Error(), "a.rec:9") {
		t.Fatalf("stale digests accepted or mislocated: %v", err)
	}

	// A shard without a digest could be from any workload.
	bare := []*ShardFile[int]{mk(0, 5, "cccc", "a.rec"), mk(5, 10, "", "b.json")}
	err = MergeShards(bare, "e", "cccc", sink)
	if err == nil || !strings.Contains(err.Error(), "b.json:9") || !strings.Contains(err.Error(), "no matrix digest") {
		t.Fatalf("digest-free shard accepted or mislocated: %v", err)
	}

	// Nor can shards be checked against no workload at all.
	good := []*ShardFile[int]{mk(0, 5, "cccc", "a.rec"), mk(5, 10, "cccc", "b.json")}
	err = MergeShards(good, "e", "", sink)
	if err == nil || !strings.Contains(err.Error(), "a.rec:9") || !strings.Contains(err.Error(), "no workload digest") {
		t.Fatalf("merge without a workload digest accepted or mislocated: %v", err)
	}
	if err := MergeShards(good, "e", "cccc", sink); err != nil {
		t.Fatalf("matching digests rejected: %v", err)
	}
}

// TestReadShardDirMixedFormats: one experiment's shards may arrive in
// different formats from different machines and still merge.
func TestReadShardDirMixedFormats(t *testing.T) {
	m, cells := testMatrix(t)
	extract := extractCount
	dir := t.TempDir()
	formats := []string{FormatJSON, FormatRecio}
	for s := 0; s < 2; s++ {
		_, err := PersistShard(m, MatrixOptions{Workers: 2, Sel: OneShard(s, 2)},
			"mixed", extract, ShardStore{Dir: dir, Format: formats[s]})
		if err != nil {
			t.Fatal(err)
		}
	}
	files, err := ReadShardDir[count](dir, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("found %d shard files, want 2", len(files))
	}
	n := 0
	if err := MergeShards(files, "mixed", MatrixDigest(m), ReduceFunc[count]{
		EmitFn: func(int, count) { n++ },
	}); err != nil {
		t.Fatal(err)
	}
	if n != cells {
		t.Fatalf("merged %d records, want %d", n, cells)
	}

	if _, err := ReadShardDir[count](filepath.Join(dir, "empty"), "mixed"); err == nil {
		t.Fatal("empty directory produced no error")
	}
}

// TestColumnarCodecRejectsUncolumnarType: a record type without a
// column mapping cannot ride recio; selecting it must fail at codec
// selection with a clear diagnosis, and json must still take it.
func TestColumnarCodecRejectsUncolumnarType(t *testing.T) {
	type triggers struct {
		Hits []int `json:"hits"`
	}
	if _, err := CodecFor[triggers](FormatRecio, 0); err == nil || !strings.Contains(err.Error(), "columnar mapping") {
		t.Fatalf("recio accepted a record type with no columnar mapping: %v", err)
	}
	if _, err := CodecFor[triggers](FormatJSON, 0); err != nil {
		t.Fatalf("json rejected a plain record type: %v", err)
	}
	if _, err := CodecFor[benchRecord](FormatRecio, 0); err != nil {
		t.Fatalf("recio rejected a columnar record type: %v", err)
	}
	for _, name := range []string{"", "recio-col", "JSON"} {
		if CheckFormat(name) == nil {
			t.Errorf("CheckFormat(%q) accepted", name)
		}
	}
}

// TestPersistedShardMatchesWholeWrite: a persisted recio shard
// checkpoints at the segment a whole-shard write seals, so the two leave
// the same bytes on disk — across more than one segment.
func TestPersistedShardMatchesWholeWrite(t *testing.T) {
	m, _ := testMatrix(t)
	wide := m
	wide.Groups = 8
	wide.Policy = func(g int) *core.Policy { return m.Policy(g % 2) }
	if wide.Cells() <= wholeShardSegment {
		t.Fatalf("%d cells fit in one segment", wide.Cells())
	}
	rep, err := PersistShard(wide, MatrixOptions{Workers: 2}, "whole", extractCount, ShardStore{Dir: t.TempDir(), Format: FormatRecio})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := RunShard(wide, MatrixOptions{Workers: 2}, "whole", extractCount)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "whole.rec")
	if err := (ColumnarCodec[count]{}).WriteShard(path, sf); err != nil {
		t.Fatal(err)
	}
	persisted, err := os.ReadFile(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(persisted, whole) {
		t.Fatalf("persisted shard (%d bytes) differs from the whole-shard write (%d bytes)", len(persisted), len(whole))
	}
	rec, err := recio.RecoverStatsFile(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	if want := (wide.Cells() + wholeShardSegment - 1) / wholeShardSegment; len(rec.Segments) != want {
		t.Fatalf("%d segments, want %d", len(rec.Segments), want)
	}
}

// TestRowLayoutRecRefused: a .rec in the row layout older builds wrote
// is refused by name — by -resume before any cell is solved or the file
// touched, and by a merge.
func TestRowLayoutRecRefused(t *testing.T) {
	m, cells := testMatrix(t)
	dir := t.TempDir()
	path := ShardPath(dir, "rows", 0, 1, "rec")
	w, fh, err := recio.Create(path, recio.Header{Experiment: "rows", Cells: cells, Groups: m.Groups,
		Shards: 1, CellHi: cells, MatrixDigest: MatrixDigest(m)}, recio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(`{"polluted":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var solved atomic.Int32
	counting := func(g, k int, o *core.Outcome) count {
		solved.Add(1)
		return extractCount(g, k, o)
	}
	_, err = PersistShard(m, MatrixOptions{Workers: 2}, "rows", counting, ShardStore{Dir: dir, Format: FormatRecio, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "row-layout") || !strings.Contains(err.Error(), "cannot resume") {
		t.Fatalf("resume onto a row-layout shard: err = %v, want the up-front row-layout refusal", err)
	}
	if after, _ := os.ReadFile(path); solved.Load() != 0 || !bytes.Equal(after, before) {
		t.Fatalf("refused resume solved %d cells or touched the file", solved.Load())
	}

	if _, err := ReadShardDir[count](dir, "rows"); err == nil || !strings.Contains(err.Error(), "row-layout") {
		t.Fatalf("merge of a row-layout shard: err = %v, want the row-layout refusal", err)
	}
}
