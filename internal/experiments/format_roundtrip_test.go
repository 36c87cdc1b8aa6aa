package experiments

// Acceptance tests for the shard→merge contract across both shard-file
// formats: for every scan tool's experiment, the stdout a merge run
// renders must be byte-identical to the single-process run — at workers
// ∈ {1, 8} × shards ∈ {1, 3}, in json and recio alike — and a recio
// shard run killed mid-flight and restarted with resume must merge to
// the same bytes.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// formatCase wires one scan tool's experiment into the generic
// stdout-identity sweep: solve the full run, shard it into a store,
// merge the directory back, each rendering the tool's exact stdout.
type formatCase struct {
	name  string
	tag   string
	full  func(t *testing.T, w *World, workers int) []byte
	shard func(t *testing.T, w *World, workers int, sel sweep.ShardSel, store sweep.ShardStore) sweep.ShardReport
	merge func(t *testing.T, w *World, dir string) []byte
}

func render(t *testing.T, err error, buf *bytes.Buffer) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func formatCases(t *testing.T, w *World) []formatCase {
	asnOf := func(n int) string { return w.Graph.ASN(n).String() }
	vulnCfg := func(workers int) VulnerabilityConfig {
		return VulnerabilityConfig{AttackerSample: 150, Seed: 3, Workers: workers}
	}
	deployCfg := func(workers int) DeploymentConfig {
		return DeploymentConfig{AttackerSample: 100, Seed: 5, ResidualTop: 3, Workers: workers}
	}
	detectCfg := func(workers int) DetectionConfig {
		return DetectionConfig{Attacks: 250, Seed: 9, Workers: workers}
	}
	holeCfg := func(workers int) HoleConfig {
		return HoleConfig{Attacks: 250, Seed: 11, Workers: workers}
	}
	return []formatCase{
		{
			name: "vulnscan-fig2", tag: TagFig2,
			full: func(t *testing.T, w *World, workers int) []byte {
				res, err := Fig2(w, vulnCfg(workers))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf), &buf)
			},
			shard: func(t *testing.T, w *World, workers int, sel sweep.ShardSel, store sweep.ShardStore) sweep.ShardReport {
				rep, err := Fig2Study(vulnCfg(workers)).Persist(w, sel, store)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			},
			merge: func(t *testing.T, w *World, dir string) []byte {
				files, err := sweep.ReadShardDir[hijack.Record](dir, TagFig2)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Fig2Study(vulnCfg(0)).Merge(w, files)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf), &buf)
			},
		},
		{
			name: "deployscan-fig5", tag: TagFig5,
			full: func(t *testing.T, w *World, workers int) []byte {
				res, err := Fig5(w, deployCfg(workers))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf), &buf)
			},
			shard: func(t *testing.T, w *World, workers int, sel sweep.ShardSel, store sweep.ShardStore) sweep.ShardReport {
				rep, err := Fig5Study(deployCfg(workers)).Persist(w, sel, store)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			},
			merge: func(t *testing.T, w *World, dir string) []byte {
				files, err := sweep.ReadShardDir[hijack.Record](dir, TagFig5)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Fig5Study(deployCfg(0)).Merge(w, files)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf), &buf)
			},
		},
		{
			name: "detectscan-fig7", tag: TagFig7,
			full: func(t *testing.T, w *World, workers int) []byte {
				res, err := Fig7(w, detectCfg(workers))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf, asnOf), &buf)
			},
			shard: func(t *testing.T, w *World, workers int, sel sweep.ShardSel, store sweep.ShardStore) sweep.ShardReport {
				rep, err := Fig7Study(detectCfg(workers)).Persist(w, sel, store)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			},
			merge: func(t *testing.T, w *World, dir string) []byte {
				files, err := sweep.ReadShardDir[detect.Record](dir, TagFig7)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Fig7Study(detectCfg(0)).Merge(w, files)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf, asnOf), &buf)
			},
		},
		{
			name: "holescan", tag: TagHoles,
			full: func(t *testing.T, w *World, workers int) []byte {
				res, err := HoleAnalysis(w, holeCfg(workers))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf, asnOf), &buf)
			},
			shard: func(t *testing.T, w *World, workers int, sel sweep.ShardSel, store sweep.ShardStore) sweep.ShardReport {
				rep, err := HoleStudy(holeCfg(workers)).Persist(w, sel, store)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			},
			merge: func(t *testing.T, w *World, dir string) []byte {
				files, err := sweep.ReadShardDir[HoleRecord](dir, TagHoles)
				if err != nil {
					t.Fatal(err)
				}
				res, err := HoleStudy(holeCfg(0)).Merge(w, files)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				return render(t, res.WriteText(&buf, asnOf), &buf)
			},
		},
	}
}

// TestFormatShardMergeStdoutIdentity is the headline acceptance matrix:
// each scan tool's shard→merge stdout must equal the full run's bytes
// for json and recio at workers ∈ {1, 8} × shards ∈ {1, 3}.
func TestFormatShardMergeStdoutIdentity(t *testing.T) {
	w := world(t)
	for _, tc := range formatCases(t, w) {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.full(t, w, 4)
			for _, format := range []string{sweep.FormatJSON, sweep.FormatRecio} {
				for _, workers := range []int{1, 8} {
					for _, shards := range []int{1, 3} {
						dir := t.TempDir()
						store := sweep.ShardStore{Dir: dir, Format: format}
						// Solve shards in shuffled order, as independent
						// machines would finish.
						for _, s := range shardOrder {
							if s >= shards {
								continue
							}
							tc.shard(t, w, workers, sweep.OneShard(s, shards), store)
						}
						got := tc.merge(t, w, dir)
						if !bytes.Equal(got, want) {
							t.Errorf("format=%s workers=%d shards=%d: merged stdout differs from full run (%d vs %d bytes)",
								format, workers, shards, len(got), len(want))
						}
					}
				}
			}
		})
	}
}

// TestRecioResumeStdoutIdentity is the crash acceptance test at the
// tool level, for every scan tool's record type: a recio shard run
// killed mid-run (file truncated inside a segment, i.e. after N
// checkpointed records) and restarted with resume must merge to stdout
// byte-identical to an uninterrupted full run. For Figure 2 the shard
// cut and the resume point both fall mid-batch: the restarted run forms
// its lane batches over the cells that are left.
func TestRecioResumeStdoutIdentity(t *testing.T) {
	w := world(t)
	for _, tc := range formatCases(t, w) {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.full(t, w, 4)

			dir := t.TempDir()
			store := sweep.ShardStore{Dir: dir, Format: sweep.FormatRecio, CheckpointEvery: 8}

			// Solve shard 0 fully, then truncate its file mid-segment to
			// simulate the process dying between two checkpoints.
			rep := tc.shard(t, w, 4, sweep.OneShard(0, 2), store)
			data, err := os.ReadFile(rep.Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rep.Path, data[:len(data)*55/100], 0o644); err != nil {
				t.Fatal(err)
			}

			store.Resume = true
			rep2 := tc.shard(t, w, 4, sweep.OneShard(0, 2), store)
			if rep2.Resumed == 0 {
				t.Fatal("restart recovered nothing — the truncated file should retain checkpointed records")
			}
			if rep2.Solved == 0 {
				t.Fatal("restart solved nothing — truncation should have lost the open segment")
			}
			if tc.tag == TagFig2 {
				checkMidBatch(t, w, rep, rep2)
			}
			// Shard 1 never crashed; -resume on a missing file is a fresh run.
			tc.shard(t, w, 4, sweep.OneShard(1, 2), store)

			got := tc.merge(t, w, dir)
			if !bytes.Equal(got, want) {
				t.Errorf("resumed merge stdout differs from full run (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// checkMidBatch holds Figure 2's shard cut and resume point inside what
// the unsharded run solves as one lane batch (a Figure 2 group shares
// one target: its batches start every core.LaneWidth cells), or the
// resume test stops showing that batches are re-formed inside [resume
// point, shard end).
func checkMidBatch(t *testing.T, w *World, rep, rep2 sweep.ShardReport) {
	t.Helper()
	_, wl, err := vulnerabilityWorkload(w, VulnerabilityConfig{AttackerSample: 150, Seed: 3}, topology.UnderTier1)
	if err != nil {
		t.Fatal(err)
	}
	for name, cell := range map[string]int{"shard cut": rep.CellHi, "resume point": rep2.CellLo + rep2.Resumed} {
		g := 0
		for cell >= wl.Matrix.Size(g) {
			cell -= wl.Matrix.Size(g)
			g++
		}
		if cell%core.LaneWidth == 0 {
			t.Fatalf("the %s falls on a batch boundary (cell %d of group %d); move it", name, cell, g)
		}
	}
}

// TestRecordColumnsRoundTrip: Figure 7's detect.Record (one and three
// probe sets, and an empty shard) and the hole analysis's HoleRecord (no
// hole, a detected success, a hole with every miss reason) come back
// from a shard file equal to what went in, in both formats, and a recio
// column read returns the field's values alone.
func TestRecordColumnsRoundTrip(t *testing.T) {
	roundTrip(t, []detect.Record{{Pollution: 5, Triggers: []int{0}}, {Pollution: 900, Triggers: []int{3}}},
		"triggers.0", []uint64{0, 3})
	roundTrip(t, []detect.Record{{Pollution: 7, Triggers: []int{0, 2, 24}}, {Pollution: 0, Triggers: []int{1, 0, 0}}},
		"triggers.2", []uint64{24, 0})
	roundTrip(t, []detect.Record{}, "pollution", nil)
	// The shard's first record fixes the width; any other is refused.
	mixed := &sweep.ShardFile[detect.Record]{Experiment: "rt", Cells: 2, Groups: 1, Shards: 1, CellHi: 2,
		MatrixDigest: "d", Records: []detect.Record{{Triggers: []int{1}}, {Triggers: []int{1, 2, 3}}}}
	if err := (sweep.ColumnarCodec[detect.Record]{}).WriteShard(filepath.Join(t.TempDir(), "mixed.rec"), mixed); err == nil ||
		!strings.Contains(err.Error(), "4 values for 2 fields") {
		t.Errorf("records of two widths in one shard: err = %v, want the width refusal", err)
	}
	why := map[MissReason]int{}
	for i, m := range missReasons {
		why[m] = i + 1
	}
	roundTrip(t, []HoleRecord{{Pollution: 3}, {Pollution: 812, Succeeded: true, Triggered: true}, {Pollution: 640, Succeeded: true, Why: why}},
		"why."+string(MissTieBreak), []uint64{0, 0, 5})
}

// roundTrip writes recs as one shard in each format, reads it back and
// reads one recio column.
func roundTrip[R any](t *testing.T, recs []R, column string, want []uint64) {
	t.Helper()
	sf := &sweep.ShardFile[R]{Experiment: "rt", Cells: len(recs), Groups: 1, Shards: 1, CellHi: len(recs),
		MatrixDigest: "d", Records: recs}
	dir := t.TempDir()
	for _, format := range []string{sweep.FormatJSON, sweep.FormatRecio} {
		codec, err := sweep.CodecFor[R](format, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := sweep.ShardPath(dir, "rt", 0, 1, codec.Ext())
		if err := codec.WriteShard(path, sf); err != nil {
			t.Fatal(err)
		}
		got, err := codec.ReadShard(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, recs) {
			t.Errorf("%s: %T records came back as %+v, want %+v", format, recs, got.Records, recs)
		}
		if format != sweep.FormatRecio {
			continue
		}
		col, err := sweep.ReadShardColumn(path, column)
		if err != nil || !reflect.DeepEqual(col, want) {
			t.Errorf("%T column %q = %v (err %v), want %v", recs, column, col, err, want)
		}
	}
}
