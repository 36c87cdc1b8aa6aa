package experiments

// These tests pin the streaming-reducer refactor and the multi-process
// shard protocol at the experiment layer: a streaming panel must equal
// the buffered reference field-for-field, and shard files written to
// disk, read back, and merged in an arbitrary order must reproduce the
// single-process result digest-for-digest.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// bufferedVulnerabilityPanel is the pre-refactor reference: materialize
// every sweep result in full — O(curves × attacks) memory — then derive
// each curve from its buffered pollution vector. The streaming panel must
// match it exactly; both paths sort private copies inside the stats calls.
func bufferedVulnerabilityPanel(w *World, cfg VulnerabilityConfig, h topology.Hierarchy, title string) (*VulnerabilityResult, error) {
	targets, wl, err := vulnerabilityWorkload(w, cfg, h)
	if err != nil {
		return nil, err
	}
	results, red := wl.Results()
	if err := sweep.RunMatrixReduce(wl.Matrix, sweep.MatrixOptions{Workers: cfg.Workers}, wl.Extract(), red); err != nil {
		return nil, err
	}
	res := &VulnerabilityResult{Title: title}
	for i, r := range results {
		rho, _ := r.AggressivenessDepthCorrelation(w.Class)
		res.Curves = append(res.Curves, VulnerabilityCurve{
			Target:                 targets[i],
			Points:                 r.CCDF(),
			Summary:                r.Summary(),
			AggressivenessDepthRho: rho,
		})
	}
	return res, nil
}

// TestVulnerabilityStreamingMatchesBuffered: the streaming Figure 2 panel
// (one reused pollution buffer) must equal the buffered reference at
// workers 1 and 4.
func TestVulnerabilityStreamingMatchesBuffered(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := world(t)
	for _, workers := range []int{1, 4} {
		cfg := VulnerabilityConfig{AttackerSample: 200, Seed: 3, Workers: workers}
		want, err := bufferedVulnerabilityPanel(w, cfg, topology.UnderTier1,
			"Figure 2: attack vulnerability by depth (tier-1 hierarchy)")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fig2(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: streaming Fig2 differs from buffered reference", workers)
		}
	}
}

// shardRoundTrip persists a shard file to disk and reads it back, so the
// merge consumes exactly what a separate machine would have shipped.
func shardRoundTrip[T any](t *testing.T, dir string, sf *sweep.ShardFile[T]) *sweep.ShardFile[T] {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s.%dof%d.json", sf.Experiment, sf.Shard, sf.Shards))
	if err := sweep.WriteShardFileTo(path, sf); err != nil {
		t.Fatal(err)
	}
	files, err := sweep.ReadShardFiles[T]([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	return files[0]
}

// shardOrder is a fixed shuffle: merge must reorder shards by cell range,
// not trust arrival order.
var shardOrder = []int{2, 0, 1}

// TestFig2ShardMergeMatchesFull: three Figure 2 shards, disk round-trip,
// merged out of order == the single-process panel.
func TestFig2ShardMergeMatchesFull(t *testing.T) {
	w := world(t)
	cfg := VulnerabilityConfig{AttackerSample: 200, Seed: 3}
	full, err := Fig2(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var files []*sweep.ShardFile[hijack.Record]
	for _, sh := range shardOrder {
		sf, err := Fig2Study(cfg).Shard(w, sweep.ShardSel{Shard: sh, Shards: len(shardOrder)})
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, shardRoundTrip(t, dir, sf))
	}
	got, err := Fig2Study(cfg).Merge(w, files)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Error("merged Fig2 differs from full run")
	}
}

// TestFig7ShardMergeMatchesFull: the detection matrix sharded three ways
// must merge to the full panel's digest.
func TestFig7ShardMergeMatchesFull(t *testing.T) {
	w := world(t)
	cfg := DetectionConfig{Attacks: 300, Seed: 9}
	full, err := Fig7(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := detectionDigest(full)
	dir := t.TempDir()
	var files []*sweep.ShardFile[detect.Record]
	for _, sh := range shardOrder {
		sf, err := Fig7Study(cfg).Shard(w, sweep.ShardSel{Shard: sh, Shards: len(shardOrder)})
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, shardRoundTrip(t, dir, sf))
	}
	got, err := Fig7Study(cfg).Merge(w, files)
	if err != nil {
		t.Fatal(err)
	}
	if d := detectionDigest(got); d != want {
		t.Errorf("merged fig7 digest %x != full run %x", d[:8], want[:8])
	}
}

// TestHoleShardMergeMatchesFull: the hole-analysis matrix sharded three
// ways must merge to the full result's digest.
func TestHoleShardMergeMatchesFull(t *testing.T) {
	w := world(t)
	cfg := HoleConfig{Attacks: 300, Seed: 11}
	full, err := HoleAnalysis(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := holeDigest(full)
	dir := t.TempDir()
	var files []*sweep.ShardFile[HoleRecord]
	for _, sh := range shardOrder {
		sf, err := HoleStudy(cfg).Shard(w, sweep.ShardSel{Shard: sh, Shards: len(shardOrder)})
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, shardRoundTrip(t, dir, sf))
	}
	got, err := HoleStudy(cfg).Merge(w, files)
	if err != nil {
		t.Fatal(err)
	}
	if d := holeDigest(got); d != want {
		t.Errorf("merged hole digest %x != full run %x", d[:8], want[:8])
	}
}

// TestFig7EmptyProbeSetRejectedOnEveryPath: an empty probe set fails the
// full run, both shard shapes and the merge — the merge even when handed
// valid shards of the same attack matrix, which would otherwise render a
// 100 % miss row for the empty set.
func TestFig7EmptyProbeSetRejectedOnEveryPath(t *testing.T) {
	w := world(t)
	valid := Fig7Study(DetectionConfig{Attacks: 40, Seed: 9})
	var files []*sweep.ShardFile[detect.Record]
	for sh := 0; sh < 2; sh++ {
		sf, err := valid.Shard(w, sweep.OneShard(sh, 2))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sf)
	}
	empty := Fig7Study(DetectionConfig{Attacks: 40, Seed: 9, BGPmonProbes: -1})
	_, errRun := empty.Run(w)
	_, errShard := empty.Shard(w, sweep.OneShard(0, 2))
	_, errPersist := empty.Persist(w, sweep.OneShard(0, 2), sweep.ShardStore{Dir: t.TempDir()})
	_, errMerge := empty.Merge(w, files)
	for name, err := range map[string]error{"Run": errRun, "Shard": errShard, "Persist": errPersist, "Merge": errMerge} {
		if err == nil || !strings.Contains(err.Error(), "is empty") {
			t.Errorf("%s: want the empty-probe-set error, got %v", name, err)
		}
	}
}
