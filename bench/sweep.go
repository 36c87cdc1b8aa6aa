package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/recio"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// ---- sweep_paper ------------------------------------------------------

// paperPass runs Figure 2 once and returns its wall time, cell count and
// text digest.
func paperPass(w *experiments.World, cfg experiments.VulnerabilityConfig) (time.Duration, int, string, error) {
	t0 := time.Now()
	res, err := experiments.Fig2(w, cfg)
	if err != nil {
		return 0, 0, "", err
	}
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		return 0, 0, "", err
	}
	el := time.Since(t0)
	cells := 0
	for _, c := range res.Curves {
		cells += c.Summary.N
	}
	return el, cells, hexDigest(text.Bytes()), nil
}

func runSweepPaper(e *env) (*report, error) {
	rep := newReport("sweep_paper")
	n, sample, minPairs := paperScale, 60, 2
	if e.quick {
		n, sample, minPairs = 200, 8, 1
	}
	w, err := setupWorld(e, n, rep)
	if err != nil {
		return nil, err
	}
	cfg := experiments.VulnerabilityConfig{AttackerSample: sample, Seed: e.seed}
	pass := func(workers int) (time.Duration, int, string, error) {
		c := cfg
		c.Workers = workers
		return paperPass(w, c)
	}

	// One unmeasured pass lets the allocator and the per-worker solvers
	// reach steady state; its digest is the reference every measured pass
	// at either worker count must reproduce.
	_, _, want, err := pass(e.nproc)
	if err != nil {
		return nil, err
	}
	e.pin(rep, "fig2_text", want)

	var wn, w1 []float64 // seconds per pass
	cells := 0
	same := true
	err = e.measure(minPairs, func() error {
		for _, workers := range []int{e.nproc, 1} {
			el, c, digest, err := pass(workers)
			if err != nil {
				return err
			}
			cells = c
			ok := digest == want
			same = same && ok
			rep.ops(c, failedIf(!ok, c))
			if workers == 1 {
				w1 = append(w1, el.Seconds())
			} else {
				wn = append(wn, el.Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.check("digest_w1_eq_wn", same, "Fig2 text digest %.12s at Workers 1 and %d over %d passes of %d cells", want, e.nproc, len(wn)+len(w1), cells)

	perSn := float64(cells) / median(wn)
	perS1 := float64(cells) / median(w1)
	rep.set("ops_per_s", perSn, len(wn))
	rep.set("latency_ms", 1e3*median(w1), len(w1))
	rep.set("cells_per_s", perSn, len(wn))
	rep.set("cells_per_s_w1", perS1, len(w1))
	rep.set("sweep.scaling_eff", perSn/(float64(e.nproc)*perS1), len(wn))
	if e.trace {
		if err := traceSweepPaper(e, rep, w, sample); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func failedIf(bad bool, n int) int {
	if bad {
		return n
	}
	return 0
}

// cellLoop is the sweep pipeline as the driver's own single-goroutine
// loop over cells [lo, hi) of the workload's matrix: Job → SolveDefense
// → Extract → reducer Emit, a span around each call. With a nil tracer
// it is the same loop untraced.
func cellLoop(tr *tracer, wl *hijack.Workload, s *core.Solver, lo, hi int, emit func(int, hijack.Record)) error {
	extract := wl.Extract()
	cell := 0
	for g := 0; g < wl.Matrix.Groups; g++ {
		size := wl.Matrix.Size(g)
		for k := 0; k < size; k, cell = k+1, cell+1 {
			if cell < lo || cell >= hi {
				continue
			}
			op := tr.begin("sweep.cell", cell)
			at, def := wl.Matrix.Job(g, k)
			sp := tr.begin("core.solve_full", cell)
			o, err := s.SolveDefense(at, def)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("hijack.measure", cell)
			rec := extract(g, k, o)
			tr.end(sp)
			sp = tr.begin("sweep.reduce", cell)
			emit(cell, rec)
			tr.end(sp)
			tr.end(op)
		}
	}
	return nil
}

// solverAllocs measures allocations per SolveDefense and per Measure
// over the first `cells` cells: a solve-only loop, then a solve+measure
// loop whose excess is Measure's.
func solverAllocs(rep *report, wl *hijack.Workload, pol *core.Policy, cells int) error {
	if total := wl.Matrix.Cells(); cells > total {
		cells = total
	}
	s := core.NewSolver(pol)
	// Warm the solver's arenas so the loop sees the steady state.
	if err := cellLoop(nil, wl, s, 0, 1, func(int, hijack.Record) {}); err != nil {
		return err
	}
	var loopErr error
	solveOnly := func() {
		cell := 0
		for g := 0; g < wl.Matrix.Groups && cell < cells; g++ {
			for k := 0; k < wl.Matrix.Size(g) && cell < cells; k, cell = k+1, cell+1 {
				at, def := wl.Matrix.Job(g, k)
				if _, err := s.SolveDefense(at, def); err != nil {
					loopErr = err
				}
			}
		}
	}
	sa, sb := memDelta(solveOnly)
	ma, _ := memDelta(func() {
		loopErr = cellLoop(nil, wl, s, 0, cells, func(int, hijack.Record) {})
	})
	if loopErr != nil {
		return loopErr
	}
	rep.set("core.solve_full.allocs_per_op", sa/float64(cells), cells)
	rep.set("core.solve_full.bytes_per_op", sb/float64(cells), cells)
	measure := (ma - sa) / float64(cells)
	if measure < 0 {
		measure = 0
	}
	rep.set("hijack.measure.allocs_per_op", measure, cells)
	return nil
}

// overheadFrac is the share of a round's reference wall that is neither
// solving nor measuring: workload build, runtime, reducers, storage.
func overheadFrac(r traceRound) float64 {
	return 1 - r.selfS("core.solve_full", "hijack.measure")/r.ref
}

// setSolveLayers reports the solver and measurement spans of a traced
// cell loop.
func setSolveLayers(rep *report, layers map[string]*layerTimes) {
	if lt := layers["core.solve_full"]; lt != nil {
		rep.set("core.solve_full.us_p50", quantile(lt.durUs, 0.50), len(lt.durUs))
		rep.set("core.solve_full.us_p99", quantile(lt.durUs, 0.99), len(lt.durUs))
	}
	if lt := layers["hijack.measure"]; lt != nil {
		rep.set("hijack.measure.us_p50", quantile(lt.durUs, 0.50), len(lt.durUs))
	}
	if lt := layers["sweep.reduce"]; lt != nil {
		rep.set("sweep.reduce.us_per_cell", lt.selfNs/1e3/float64(len(lt.durUs)), len(lt.durUs))
	}
}

func traceSweepPaper(e *env, rep *report, w *experiments.World, sample int) error {
	targets, err := w.ScenarioTargets(topology.UnderTier1)
	if err != nil {
		return err
	}
	attackers := experiments.SampleAttackers(hijack.AllNodes(w.Graph.N()), sample, e.rng("paper-attackers"))
	cfgs := make([]hijack.SweepConfig, len(targets))
	for i, t := range targets {
		cfgs[i] = hijack.SweepConfig{Target: t.Node, Attackers: attackers}
	}
	build := func(tr *tracer) (*hijack.Workload, error) {
		sp := tr.begin("hijack.workload_build", 0)
		wl, err := hijack.NewWorkload(w.Policy, cfgs)
		tr.end(sp)
		return wl, err
	}
	// checksum folds the reduced results into the one value the three
	// walks must agree on.
	checksum := func(results []*hijack.SweepResult) string {
		sum := newRecordSum()
		for _, r := range results {
			for i := range r.Pollution {
				sum.Emit(0, hijack.Record{Pollution: r.Pollution[i], WeightFrac: r.WeightFrac[i]})
			}
		}
		return sum.String()
	}
	cells, want, agree := 0, "", true
	// ref is the cells through the library's own runtime at Workers 1.
	ref := func() (time.Duration, error) {
		t0 := time.Now()
		wl, err := build(nil)
		if err != nil {
			return 0, err
		}
		results, red := wl.Results()
		if err := sweep.RunMatrixReduce(wl.Matrix, sweep.MatrixOptions{Workers: 1}, wl.Extract(), red); err != nil {
			return 0, err
		}
		cells, want = wl.Matrix.Cells(), checksum(results)
		return time.Since(t0), nil
	}
	// staged is the same pipeline as the driver's loop.
	staged := func(tr *tracer) (time.Duration, error) {
		t0 := time.Now()
		wl, err := build(tr)
		if err != nil {
			return 0, err
		}
		results, red := wl.Results()
		if err := cellLoop(tr, wl, core.NewSolver(w.Policy), 0, wl.Matrix.Cells(), red.Emit); err != nil {
			return 0, err
		}
		red.Finish()
		sp := tr.begin("experiments.assemble", 0)
		got := checksum(results)
		tr.end(sp)
		agree = agree && got == want
		rep.ops(cells, failedIf(got != want, cells))
		return time.Since(t0), nil
	}
	rounds, err := e.stagedTrace(rep, len(cfgs)*len(attackers), ref, staged)
	if err != nil {
		return err
	}
	rep.check("trace_same_result", agree, "staged loop reduces to the library run's result over %d cells", cells)

	last := rounds[len(rounds)-1]
	setSolveLayers(rep, last.layers)
	rep.set("hijack.workload_build_s", last.selfS("hijack.workload_build"), 1)
	rep.set("experiments.assemble_s", last.selfS("experiments.assemble"), 1)
	rep.set("sweep.overhead_frac", overRounds(rounds, overheadFrac), cells)
	wl, err := build(nil)
	if err != nil {
		return err
	}
	return solverAllocs(rep, wl, w.Policy, 100)
}

// ---- sweep_ladder_persist ---------------------------------------------

const ladderShards = 4

// ladderPass is one persist-then-merge pass of the scenario-ranking
// study: every shard solved and written into dir, then read back, merged
// and rendered.
type ladderPass struct {
	persist, merge time.Duration
	cells          int
	bytes          int64
	digest         string
}

func runLadderPass(w *experiments.World, cfg experiments.ScenarioRankingConfig, dir, format string) (ladderPass, error) {
	var p ladderPass
	t0 := time.Now()
	for i := 0; i < ladderShards; i++ {
		r, err := experiments.ScenarioRankingShardTo(w, cfg, sweep.OneShard(i, ladderShards), sweep.ShardStore{Dir: dir, Format: format})
		if err != nil {
			return p, err
		}
		p.cells += r.CellHi - r.CellLo
		st, err := os.Stat(r.Path)
		if err != nil {
			return p, err
		}
		p.bytes += st.Size()
	}
	t1 := time.Now()
	files, err := sweep.ReadShardDir[hijack.Record](dir, experiments.TagScenario)
	if err != nil {
		return p, err
	}
	res, err := experiments.ScenarioRankingMerge(w, cfg, files)
	if err != nil {
		return p, err
	}
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		return p, err
	}
	p.persist, p.merge = t1.Sub(t0), time.Since(t1)
	p.digest = hexDigest(text.Bytes())
	return p, nil
}

// binaryFormat is the shard layout the storage workloads measure:
// recio-col while the tree has it, else the surviving binary layout.
func binaryFormat() string {
	if sweep.CheckFormat("recio-col") == nil {
		return "recio-col"
	}
	return "recio"
}

func runSweepLadder(e *env) (*report, error) {
	rep := newReport("sweep_ladder_persist")
	n, sample, warm, minPasses := 2000, 300, 2, 5
	if e.quick {
		n, sample, warm, minPasses = 200, 10, 0, 1
	}
	w, err := setupWorld(e, n, rep)
	if err != nil {
		return nil, err
	}
	cfg := experiments.ScenarioRankingConfig{AttackerSample: sample, Seed: e.seed, Workers: e.nproc}

	// The in-memory study is what the merged shards must reproduce.
	mem, err := experiments.ScenarioRanking(w, cfg)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := mem.WriteText(&text); err != nil {
		return nil, err
	}
	want := hexDigest(text.Bytes())
	e.pin(rep, "ranking_text", want)

	format := binaryFormat()
	// pass persists and merges once in a fresh directory, which it
	// removes unless keep is set; then the caller removes it.
	pass := func(c experiments.ScenarioRankingConfig, keep bool) (ladderPass, string, error) {
		dir, err := e.tempDir("ladder-*")
		if err != nil {
			return ladderPass{}, "", err
		}
		p, err := runLadderPass(w, c, dir, format)
		if err != nil || !keep {
			os.RemoveAll(dir)
			dir = ""
		}
		return p, dir, err
	}
	for i := 0; i < warm; i++ {
		if _, _, err := pass(cfg, false); err != nil {
			return nil, err
		}
	}
	var perS, mergeMs []float64
	var last ladderPass
	same := true
	err = e.measure(minPasses, func() error {
		p, _, err := pass(cfg, false)
		if err != nil {
			return err
		}
		ok := p.digest == want
		same = same && ok
		rep.ops(p.cells, failedIf(!ok, p.cells))
		perS = append(perS, float64(p.cells)/(p.persist+p.merge).Seconds())
		mergeMs = append(mergeMs, 1e3*p.merge.Seconds())
		last = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.check("merged_eq_in_memory", same, "merged %s shards render digest %.12s, the in-memory ScenarioRanking's, on %d passes of %d cells", format, want, len(perS), last.cells)
	rep.set("ops_per_s", median(perS), len(perS))
	rep.set("latency_ms", median(mergeMs), len(mergeMs))
	rep.set("cells_per_s", median(perS), len(perS))
	rep.set("bytes_per_record", float64(last.bytes)/float64(last.cells), last.cells)
	if e.trace {
		if err := traceSweepLadder(e, rep, w, cfg, format, pass); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ladderWorkload rebuilds the scenario-ranking matrix from public
// constructors: the deep target, a transit-attacker sample and the
// none/random/top-degree/depth-ranked ladder at the scaled paper sizes,
// one group per (kind, rung). The random rungs and the attacker sample
// come from the benchmark's own seeded streams, so the cells are the
// study's in distribution, not draw for draw.
func ladderWorkload(e *env, w *experiments.World, sample int) (*hijack.Workload, error) {
	target, ok := w.DeepTarget()
	if !ok {
		return nil, fmt.Errorf("no deep target")
	}
	ladder := []deploy.Strategy{deploy.None()}
	for i, paper := range []int{62, 124, 299} {
		k := paper * w.Graph.N() / paperScale
		if k < 1 {
			k = 1
		}
		ladder = append(ladder,
			deploy.Random(w.Graph, k, e.rng(fmt.Sprintf("ladder-random-%d", i))),
			deploy.TopDegree(w.Graph, k),
			deploy.DepthRanked(w.Graph, w.Class, k))
	}
	attackers := experiments.SampleAttackers(w.Graph.TransitNodes(), sample, e.rng("ladder-attackers"))
	var cfgs []hijack.SweepConfig
	for _, kind := range core.Kinds() {
		cfgs = append(cfgs, deploy.ConfigsScenario(w.Policy, target, attackers, ladder, kind, core.MechROV|core.MechASPA)...)
	}
	return hijack.NewWorkload(w.Policy, cfgs)
}

func traceSweepLadder(e *env, rep *report, w *experiments.World, cfg experiments.ScenarioRankingConfig, format string,
	pass func(experiments.ScenarioRankingConfig, bool) (ladderPass, string, error)) error {
	codec, err := sweep.CodecFor[hijack.Record](format, 0)
	if err != nil {
		return err
	}
	c1 := cfg
	c1.Workers = 1
	// One library pass's shard files are kept: they carry the study's own
	// matrix digest, so the staged loop reads and assembles them.
	first, refDir, err := pass(c1, true)
	if err != nil {
		return err
	}
	defer os.RemoveAll(refDir)
	// ref is one pass through the library at Workers 1.
	ref := func() (time.Duration, error) {
		p, _, err := pass(c1, false)
		return p.persist + p.merge, err
	}
	// staged persists every shard as the driver's loop — workload build,
	// cells, encode — then reads and assembles the kept files.
	staged := func(tr *tracer) (time.Duration, error) {
		dir, err := e.tempDir("ladder-trace-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		for i := 0; i < ladderShards; i++ {
			shard := tr.begin("sweep.shard", i)
			sp := tr.begin("hijack.workload_build", i)
			wl, err := ladderWorkload(e, w, cfg.AttackerSample)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			cells := wl.Matrix.Cells()
			lo, hi := sweep.ShardRange(cells, i, ladderShards)
			sf := &sweep.ShardFile[hijack.Record]{
				Experiment: experiments.TagScenario, Cells: cells, Groups: wl.Matrix.Groups,
				Shard: i, Shards: ladderShards, CellLo: lo, CellHi: hi,
				MatrixDigest: sweep.MatrixDigest(wl.Matrix),
				Records:      make([]hijack.Record, 0, hi-lo),
			}
			emit := func(_ int, r hijack.Record) { sf.Records = append(sf.Records, r) }
			if err := cellLoop(tr, wl, core.NewSolver(w.Policy), lo, hi, emit); err != nil {
				return 0, err
			}
			sp = tr.begin("sweep.encode", i)
			err = codec.WriteShard(sweep.ShardPath(dir, experiments.TagScenario, i, ladderShards, codec.Ext()), sf)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			tr.end(shard)
		}
		sp := tr.begin("sweep.decode", 0)
		files, err := sweep.ReadShardDir[hijack.Record](refDir, experiments.TagScenario)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("experiments.assemble", 0)
		res, err := experiments.ScenarioRankingMerge(w, c1, files)
		if err == nil {
			var text bytes.Buffer
			err = res.WriteText(&text)
		}
		tr.end(sp)
		return time.Since(t0), err
	}
	rounds, err := e.stagedTrace(rep, first.cells, ref, staged)
	if err != nil {
		return err
	}
	last := rounds[len(rounds)-1]
	setSolveLayers(rep, last.layers)
	cells := float64(first.cells)
	rep.set("hijack.workload_build_s", last.selfS("hijack.workload_build"), ladderShards)
	rep.set("experiments.assemble_s", last.selfS("experiments.assemble"), 1)
	rep.set("sweep.encode.recio-col.ns_per_record", 1e9*last.selfS("sweep.encode")/cells, first.cells)
	rep.set("sweep.decode.recio-col.ns_per_record", 1e9*last.selfS("sweep.decode")/cells, first.cells)
	rep.set("sweep.overhead_frac", overRounds(rounds, overheadFrac), first.cells)

	wl, err := ladderWorkload(e, w, cfg.AttackerSample)
	if err != nil {
		return err
	}
	if err := solverAllocs(rep, wl, w.Policy, 1000); err != nil {
		return err
	}
	return traceCheckpoints(e, rep, wl)
}

// traceCheckpoints prices the row-recio durability machinery on the
// ladder's first shard, through recio's own writer the way
// sweep.PersistShard drives it: what one 256-record checkpoint (seal,
// compress, write, fsync) costs, and what resuming the complete shard
// costs through the index trailer versus a body scan.
func traceCheckpoints(e *env, rep *report, wl *hijack.Workload) error {
	dir, err := e.tempDir("ladder-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sf, err := sweep.RunShard(wl.Matrix, sweep.MatrixOptions{Workers: e.nproc, Sel: sweep.OneShard(0, ladderShards)}, "ckpt", wl.Extract())
	if err != nil {
		return err
	}
	const every = 256
	path := filepath.Join(dir, "ckpt.rec")
	w, fh, err := recio.Create(path, recio.Header{
		Experiment: sf.Experiment, Cells: sf.Cells, Groups: sf.Groups, Shard: sf.Shard, Shards: sf.Shards,
		CellLo: sf.CellLo, CellHi: sf.CellHi, MatrixDigest: sf.MatrixDigest,
	}, recio.Options{CellBase: sf.CellLo})
	if err != nil {
		return err
	}
	defer fh.Close() // closed and checked below on the success path
	var ckptUs []float64
	for _, r := range sf.Records {
		p, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := w.Append(p); err != nil {
			return err
		}
		if w.Pending() >= every {
			t0 := time.Now()
			err := w.Checkpoint()
			ckptUs = append(ckptUs, float64(time.Since(t0))/1e3)
			if err != nil {
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	rep.set("recio.checkpoint.us_p50", median(ckptUs), len(ckptUs))

	records := len(sf.Records)
	resume := func(wantIndex bool) (float64, error) {
		var us []float64
		for i := 0; i < 9; i++ {
			t0 := time.Now()
			rec, err := recio.RecoverStatsFile(path)
			us = append(us, float64(time.Since(t0))/1e3)
			if err != nil {
				return 0, err
			}
			if rec.ViaIndex != wantIndex || rec.Records != records {
				return 0, fmt.Errorf("resume of %s: via index %v, %d of %d records", path, rec.ViaIndex, rec.Records, records)
			}
		}
		return median(us), nil
	}
	seek, err := resume(true)
	if err != nil {
		return err
	}
	// Dropping the 16-byte footer makes the trailer unreachable, so the
	// same file resumes the way a crash-damaged one does: by scanning.
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(path, st.Size()-16); err != nil {
		return err
	}
	replay, err := resume(false)
	if err != nil {
		return err
	}
	rep.set("recio.resume_seek.us", seek, 9)
	rep.set("recio.resume_replay.us", replay, 9)
	rep.check("resume_paths", true, "complete %d-record row-recio shard with %d checkpoints resumed via the index trailer, then via a body scan with the footer removed", records, len(ckptUs))
	return nil
}
