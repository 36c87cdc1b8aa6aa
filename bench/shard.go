package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

const (
	mergeTag    = "shardmerge"
	mergeDigest = "bench-shard-merge-fixed-matrix-digest"
	mergeShards = 8
)

// recordSum folds records, in stream order, into one checksum — the
// reducer the merged stream feeds and the value the source must match.
type recordSum struct {
	h hash.Hash64
	n int
}

func newRecordSum() *recordSum { return &recordSum{h: fnv.New64a()} }

func (s *recordSum) Emit(_ int, r hijack.Record) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(r.Pollution))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.WeightFrac))
	_, _ = s.h.Write(b[:]) // hash.Hash never fails
	s.n++
}

func (s *recordSum) Finish() {}

func (s *recordSum) String() string { return fmt.Sprintf("%016x/%d", s.h.Sum64(), s.n) }

// mergeSource solves one real scenario-ranking sweep on a 2,000-AS world
// and tiles its records over the shard files the workload writes.
func mergeSource(e *env, n, sample, perShard int) ([]*sweep.ShardFile[hijack.Record], error) {
	w, err := experiments.NewWorld(n, worldSeed)
	if err != nil {
		return nil, err
	}
	sf, err := experiments.ScenarioRankingShard(w, experiments.ScenarioRankingConfig{AttackerSample: sample, Seed: e.seed, Workers: e.nproc}, sweep.ShardSel{})
	if err != nil {
		return nil, err
	}
	files := make([]*sweep.ShardFile[hijack.Record], mergeShards)
	next := 0
	for i := range files {
		recs := make([]hijack.Record, perShard)
		for j := range recs {
			recs[j] = sf.Records[next%len(sf.Records)]
			next++
		}
		files[i] = &sweep.ShardFile[hijack.Record]{
			Experiment: mergeTag, Cells: mergeShards * perShard, Groups: 1,
			Shard: i, Shards: mergeShards, CellLo: i * perShard, CellHi: (i + 1) * perShard,
			MatrixDigest: mergeDigest, Records: recs,
		}
	}
	return files, nil
}

// mergePass writes every shard with the codec into a fresh directory,
// reads the directory back and merges it into a checksum. tr, when
// non-nil, gets one span per shard written and read and one for the
// merge.
type mergePass struct {
	write, read, merge time.Duration
	bytes              int64
	sum                string
}

func runMergePass(e *env, tr *tracer, format string, files []*sweep.ShardFile[hijack.Record]) (mergePass, error) {
	var p mergePass
	codec, err := sweep.CodecFor[hijack.Record](format, 0)
	if err != nil {
		return p, err
	}
	dir, err := e.tempDir("merge-*")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	for i, f := range files {
		sp := tr.begin("sweep.encode."+format, i)
		err := codec.WriteShard(sweep.ShardPath(dir, mergeTag, f.Shard, f.Shards, codec.Ext()), f)
		tr.end(sp)
		if err != nil {
			return p, err
		}
	}
	t1 := time.Now()
	var got []*sweep.ShardFile[hijack.Record]
	if tr == nil {
		got, err = sweep.ReadShardDir[hijack.Record](dir, mergeTag)
		if err != nil {
			return p, err
		}
	} else {
		// Same files in the same order as ReadShardDir, one span each.
		for i, f := range files {
			sp := tr.begin("sweep.decode."+format, i)
			g, err := codec.ReadShard(sweep.ShardPath(dir, mergeTag, f.Shard, f.Shards, codec.Ext()))
			tr.end(sp)
			if err != nil {
				return p, err
			}
			got = append(got, g)
		}
	}
	t2 := time.Now()
	sum := newRecordSum()
	sp := tr.begin("sweep.merge", 0)
	err = sweep.MergeShards(got, mergeTag, mergeDigest, sum)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	p.write, p.read, p.merge = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	p.sum = sum.String()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return p, err
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return p, err
		}
		p.bytes += info.Size()
	}
	return p, nil
}

func runShardMerge(e *env) (*report, error) {
	rep := newReport("shard_merge")
	n, sample, perShard, minPasses := 2000, 300, 50000, 5
	if e.quick {
		n, sample, perShard, minPasses = 200, 10, 500, 1
	}
	var files []*sweep.ShardFile[hijack.Record]
	build := func() (err error) {
		files, err = mergeSource(e, n, sample, perShard)
		return err
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
	records := mergeShards * perShard
	src := newRecordSum()
	for _, f := range files {
		for i := range f.Records {
			src.Emit(0, f.Records[i])
		}
	}
	want := src.String()
	e.pin(rep, "record_checksum", want)

	format := binaryFormat()
	if _, err := runMergePass(e, nil, format, files); err != nil { // warm-up
		return nil, err
	}
	var writeS, mergeS []float64
	var last mergePass
	same := true
	err := e.measure(minPasses, func() error {
		p, err := runMergePass(e, nil, format, files)
		if err != nil {
			return err
		}
		ok := p.sum == want
		same = same && ok
		rep.ops(records, failedIf(!ok, records))
		writeS = append(writeS, p.write.Seconds())
		mergeS = append(mergeS, (p.read + p.merge).Seconds())
		last = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.check("checksum_"+format, same, "merged stream checksum %s equals the source records' on %d passes", want, len(writeS))
	rep.set("ops_per_s", float64(records)/median(writeS), len(writeS))
	rep.set("latency_ms", 1e3*median(mergeS), len(mergeS))
	rep.set("records_per_s_write", float64(records)/median(writeS), len(writeS))
	rep.set("records_per_s_merge", float64(records)/median(mergeS), len(mergeS))
	rep.set("bytes_per_record", float64(last.bytes)/float64(records), records)
	if e.trace {
		if err := traceShardMerge(e, rep, files, format, want); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func traceShardMerge(e *env, rep *report, files []*sweep.ShardFile[hijack.Record], format, want string) error {
	records := files[0].Cells
	same := true
	walk := func(tr *tracer, format string) (mergePass, error) {
		p, err := runMergePass(e, tr, format, files)
		same = same && p.sum == want
		rep.ops(records, failedIf(p.sum != want, records))
		return p, err
	}
	// The library does this workload's whole job on one goroutine already,
	// so the reference is the untraced pass itself.
	ref := func() (time.Duration, error) {
		p, err := walk(nil, format)
		return p.write + p.read + p.merge, err
	}
	staged := func(tr *tracer) (time.Duration, error) {
		p, err := walk(tr, format)
		return p.write + p.read + p.merge, err
	}
	rounds, err := e.stagedTrace(rep, records, ref, staged)
	if err != nil {
		return err
	}
	layers := rounds[len(rounds)-1].layers
	// json is walked once, for its layer metrics only.
	jtr := newTracer()
	js, err := walk(jtr, "json")
	if err != nil {
		return err
	}
	rep.check("checksum_traced", same, "traced %s and json passes merge to the source checksum", format)
	per := func(layers map[string]*layerTimes, name string) float64 {
		if lt := layers[name]; lt != nil {
			return lt.selfNs / float64(records)
		}
		return 0
	}
	jsonLayers := jtr.byLayer()
	rep.set("sweep.encode.recio-col.ns_per_record", per(layers, "sweep.encode."+format), records)
	rep.set("sweep.decode.recio-col.ns_per_record", per(layers, "sweep.decode."+format), records)
	rep.set("sweep.merge.ns_per_record", per(layers, "sweep.merge"), records)
	rep.set("sweep.encode.json.ns_per_record", per(jsonLayers, "sweep.encode.json"), records)
	rep.set("sweep.decode.json.ns_per_record", per(jsonLayers, "sweep.decode.json"), records)
	rep.set("recio.bytes_per_record.json", float64(js.bytes)/float64(records), records)
	if format == "recio-col" {
		return traceColumnRead(e, rep, files[0])
	}
	return nil
}

// traceColumnRead times folding one field of a columnar shard without
// inflating its sibling column.
func traceColumnRead(e *env, rep *report, f *sweep.ShardFile[hijack.Record]) error {
	dir, err := e.tempDir("column-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	codec, err := sweep.CodecFor[hijack.Record]("recio-col", 0)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "column."+codec.Ext())
	if err := codec.WriteShard(path, f); err != nil {
		return err
	}
	var ns []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		vals, err := sweep.ReadShardColumn(path, "pollution")
		ns = append(ns, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		if len(vals) != len(f.Records) || int(vals[0]) != f.Records[0].Pollution {
			return fmt.Errorf("column read of %s: %d values for %d records", path, len(vals), len(f.Records))
		}
	}
	rep.set("recio.column_read.ns_per_record", median(ns)/float64(len(f.Records)), 9)
	return nil
}
