package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// paperScale is the paper's AS count (November 2012 CAIDA snapshot).
const paperScale = 42697

// worldSeed generates every topology. The paper measures one Internet —
// one CAIDA snapshot — and asks many questions of it, so the world is
// the benchmark's dataset and is the same in every run; -seed draws what
// is asked of it (attackers, queries, updates). A world per seed would
// make a run's cost depend on which graph the seed happened to draw.
const worldSeed = 42

// medianSetup times build at least minSetups times, and up to maxSetups
// while the repetitions have taken under a second, and returns the
// median wall time in seconds and the repetition count. Whatever build
// leaves behind belongs to its last call.
func medianSetup(build func() error) (float64, int, error) {
	const minSetups, maxSetups = 3, 15
	var times []float64
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < time.Second); i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		// Repeating the set-up is the benchmark's doing; collect what the
		// previous repetition left so it does not count towards peak memory.
		runtime.GC()
	}
	return median(times), len(times), nil
}

// stagedWorld builds the world the way experiments.NewWorld does, one
// public constructor at a time, so a traced run can report where set-up
// time goes.
func stagedWorld(n int, rep *report) (*experiments.World, error) {
	p := topology.DefaultParams(n)
	p.Seed = worldSeed
	t0 := time.Now()
	g, err := topology.Generate(p)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	con, err := topology.ContractSiblings(g)
	if err != nil {
		return nil, err
	}
	class := topology.Classify(con.Graph, topology.ClassifyOptions{})
	t2 := time.Now()
	pol, err := core.NewPolicy(con.Graph, class.Tier1)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	rep.set("topology.generate_s", t1.Sub(t0).Seconds(), 1)
	rep.set("topology.classify_s", t2.Sub(t1).Seconds(), 1)
	rep.set("core.policy_build_s", t3.Sub(t2).Seconds(), 1)
	return &experiments.World{Graph: con.Graph, Class: class, Policy: pol, Params: p}, nil
}

// setupWorld is the common first step of every solver workload: in an
// untraced run, the median of repeated experiments.NewWorld calls as
// setup_s; in a traced run, one staged build with its stage times.
func setupWorld(e *env, n int, rep *report) (*experiments.World, error) {
	if e.trace {
		return stagedWorld(n, rep)
	}
	var w *experiments.World
	s, reps, err := medianSetup(func() (err error) {
		w, err = experiments.NewWorld(n, worldSeed)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", s, reps)
	return w, nil
}

// streamRng returns the generator for one named input stream under a
// seed, so adding a stream never shifts another's draws.
func streamRng(seed int64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// rng is the -seed generator for one named input stream.
func (e *env) rng(stream string) *rand.Rand { return streamRng(e.seed, stream) }

func hexDigest(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

//go:embed golden.json
var goldenJSON []byte

// pin records a digest and, on the pinned inputs (seed 42, full size,
// default seconds), checks it against golden.json.
func (e *env) pin(rep *report, name, digest string) {
	rep.digests[name] = digest
	if !e.pinned() {
		return
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		rep.check("golden."+name, false, "golden.json: %v", err)
		return
	}
	want := golden[rep.workload][name]
	rep.check("golden."+name, digest == want, "seed-42 digest %.12s, pinned %.12s", digest, want)
}
