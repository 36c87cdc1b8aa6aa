package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
)

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
}

// TestCodecRoundTrip: both codecs reproduce a solved shard exactly —
// metadata, digest and every record — and ReadShardAuto dispatches to
// the right one by extension.
func TestCodecRoundTrip(t *testing.T) {
	m, _ := testMatrix(t)
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	sf, err := RunShard(m, MatrixOptions{Workers: 4, Sel: OneShard(1, 3)}, "codec-test", extract)
	if err != nil {
		t.Fatal(err)
	}
	if sf.MatrixDigest == "" {
		t.Fatal("RunShard left MatrixDigest empty")
	}
	dir := t.TempDir()
	for _, name := range []string{FormatJSON, FormatRecio} {
		codec, err := CodecByName[int](name)
		if err != nil {
			t.Fatal(err)
		}
		path := ShardPath(dir, "codec-test", 1, 3, codec.Ext())
		if err := codec.WriteShard(path, sf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt, err := ReadShardAuto[int](path)
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
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }

	want := make([]int, 0, cells)
	if err := RunMatrixReduce(m, MatrixOptions{Workers: 4}, extract, ReduceFunc[int]{
		EmitFn: func(_ int, v int) { want = append(want, v) },
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
		files, err := ReadShardDir[int](dir, "persist-test")
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got := make([]int, 0, cells)
		if err := MergeShards(files, "persist-test", MatrixDigest(m), ReduceFunc[int]{
			EmitFn: func(_ int, v int) { got = append(got, v) },
		}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if runDigest(got) != runDigest(want) {
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
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
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
	ref, err := ReadShardAuto[int](rep.Path)
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
	got, err := ReadShardAuto[int](rep2.Path)
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
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
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
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	_, err := PersistShard(m, MatrixOptions{}, "x", extract,
		ShardStore{Dir: t.TempDir(), Format: FormatJSON, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "recio") {
		t.Fatalf("json resume accepted: %v", err)
	}
}

// TestMergeShardsDigestMismatch covers the mixed-digest merge: shards
// produced from different worlds must abort the merge with a file:line
// diagnostic, and a shard set disagreeing with the rebuilt workload's
// digest must abort too.
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

	// Legacy digest-free shards stay mergeable.
	legacy := []*ShardFile[int]{mk(0, 5, "", ""), mk(5, 10, "", "")}
	if err := MergeShards(legacy, "e", "cccc", sink); err != nil {
		t.Fatalf("legacy shards rejected: %v", err)
	}
}

// TestReadShardDirMixedFormats: one experiment's shards may arrive in
// different formats from different machines and still merge.
func TestReadShardDirMixedFormats(t *testing.T) {
	m, cells := testMatrix(t)
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	dir := t.TempDir()
	formats := []string{FormatJSON, FormatRecio}
	for s := 0; s < 2; s++ {
		_, err := PersistShard(m, MatrixOptions{Workers: 2, Sel: OneShard(s, 2)},
			"mixed", extract, ShardStore{Dir: dir, Format: formats[s]})
		if err != nil {
			t.Fatal(err)
		}
	}
	files, err := ReadShardDir[int](dir, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("found %d shard files, want 2", len(files))
	}
	n := 0
	if err := MergeShards(files, "mixed", MatrixDigest(m), ReduceFunc[int]{
		EmitFn: func(int, int) { n++ },
	}); err != nil {
		t.Fatal(err)
	}
	if n != cells {
		t.Fatalf("merged %d records, want %d", n, cells)
	}

	if _, err := ReadShardDir[int](filepath.Join(dir, "empty"), "mixed"); err == nil {
		t.Fatal("empty directory produced no error")
	}
}

// TestColumnarCodecRejectsUncolumnarType: record types carrying
// variable-width fields have no column mapping; selecting recio-col for
// them must fail at codec selection with a clear diagnosis.
func TestColumnarCodecRejectsUncolumnarType(t *testing.T) {
	type triggers struct {
		Hits []int `json:"hits"`
	}
	if _, err := CodecFor[triggers](FormatRecioCol, 0); err == nil {
		t.Fatal("recio-col accepted a record type with no columnar mapping")
	}
	if _, err := CodecFor[benchRecord](FormatRecioCol, 0); err != nil {
		t.Fatalf("recio-col rejected a columnar record type: %v", err)
	}
}
