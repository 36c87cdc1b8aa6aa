// Package cli holds the flag plumbing shared by the cmd/ tools: every
// tool runs against a World that is either generated (-scale/-seed) or
// loaded from a CAIDA AS-relationship file (-topo).
package cli

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
)

// WorldFlags declares the shared topology flags on a FlagSet.
type WorldFlags struct {
	Scale    *int
	Seed     *int64
	TopoFile *string
	NoSPF    *bool
}

// AddWorldFlags registers -scale, -seed, -topo and -no-tier1-spf.
func AddWorldFlags(fs *flag.FlagSet) *WorldFlags {
	return &WorldFlags{
		Scale:    fs.Int("scale", 5000, "approximate AS count for the generated internet (42697 = paper scale)"),
		Seed:     fs.Int64("seed", 1, "topology generator seed"),
		TopoFile: fs.String("topo", "", "CAIDA AS-relationship file to load instead of generating"),
		NoSPF:    fs.Bool("no-tier1-spf", false, "disable the tier-1 shortest-path import override"),
	}
}

// AddWorkersFlag registers -workers. Every sweep-backed experiment accepts
// a worker count; results are bit-identical at any value, so the flag only
// trades wall-clock time for cores.
func AddWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "parallel solver workers (0 = all CPUs); any value gives identical results")
}

// ServeFlags configures a long-running query service (cmd/hijackd).
type ServeFlags struct {
	Listen  *string
	Backlog *int
}

// AddServeFlags registers -listen and -backlog.
func AddServeFlags(fs *flag.FlagSet) *ServeFlags {
	return &ServeFlags{
		Listen:  fs.String("listen", "127.0.0.1:8642", "address to serve the query API on (host:0 picks a free port)"),
		Backlog: fs.Int("backlog", 0, "admitted queries that may wait beyond the solving workers before shedding (0 = 2×workers, negative = none)"),
	}
}

// ScenarioFlags selects the attack scenario and deployed defense
// mechanisms for scan tools. The defaults ("origin", "") reproduce the
// paper's model — and its workload digests — exactly.
type ScenarioFlags struct {
	Scenario *string
	Defense  *string
}

// AddScenarioFlags registers -scenario and -defense.
func AddScenarioFlags(fs *flag.FlagSet) *ScenarioFlags {
	return &ScenarioFlags{
		Scenario: fs.String("scenario", "", `attack scenario: "origin" (default), "forged-origin" or "route-leak"`),
		Defense:  fs.String("defense", "", `deployed defense mechanisms, '+'-joined: "rov", "aspa", "peerlock" (tool default when empty)`),
	}
}

// Parse resolves the flags into an attack kind and a mechanism mask.
// An empty -defense yields mechs = 0; callers apply their tool default.
func (f *ScenarioFlags) Parse() (core.AttackKind, core.DefenseMech, error) {
	kind, err := core.ParseAttackKind(*f.Scenario)
	if err != nil {
		return 0, 0, err
	}
	mechs, err := core.ParseDefenseMech(*f.Defense)
	if err != nil {
		return 0, 0, err
	}
	return kind, mechs, nil
}

// ShardFlags is the multi-process matrix plumbing shared by the scan
// tools: `-shard i/n -shard-dir d` solves one cell-range slice of every
// experiment the invocation covers and writes it as a -format shard file;
// `-merge -shard-dir d` loads all slices back and reduces them into the
// exact result a single-process run would print. World and experiment
// flags must match across the shard and merge invocations.
type ShardFlags struct {
	Spec   *string
	Dir    *string
	Merge  *bool
	Format *string
	Resume *bool
	Level  *GzipLevel
}

// GzipLevel is the -level flag: a gzip compression level validated at
// flag-parse time, so an out-of-range value fails before any topology
// is built or file touched. The zero value means "codec default".
type GzipLevel int

// String implements flag.Value.
func (l *GzipLevel) String() string {
	if l == nil || *l == 0 {
		return ""
	}
	return strconv.Itoa(int(*l))
}

// Set implements flag.Value, rejecting anything outside gzip's 1..9.
// The flag package prefixes the returned error with the flag's name.
func (l *GzipLevel) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("-level wants an integer gzip level, got %q", s)
	}
	if n < gzip.BestSpeed || n > gzip.BestCompression {
		return fmt.Errorf("-level %d is outside gzip's %d (fastest) .. %d (smallest)",
			n, gzip.BestSpeed, gzip.BestCompression)
	}
	*l = GzipLevel(n)
	return nil
}

// AddShardFlags registers -shard, -shard-dir, -merge, -format, -resume
// and -level.
func AddShardFlags(fs *flag.FlagSet) *ShardFlags {
	f := &ShardFlags{
		Spec:   fs.String("shard", "", `solve only shard "i/n" of each sweep, writing records to -shard-dir instead of rendering results`),
		Dir:    fs.String("shard-dir", "", "directory holding shard files (written with -shard, read with -merge)"),
		Merge:  fs.Bool("merge", false, "merge the shard files in -shard-dir instead of solving"),
		Format: fs.String("format", sweep.FormatJSON, `shard file format: "json" (indented, human-readable) or "recio" (compressed binary columns, checkpointed, resumable)`),
		Resume: fs.Bool("resume", false, "continue an interrupted -shard run from its last checkpoint (recio format only)"),
		Level:  new(GzipLevel),
	}
	fs.Var(f.Level, "level", "gzip level 1..9 for recio shard files (default: fastest)")
	return f
}

// ShardMode says which of the three run shapes the flags select.
type ShardMode int

const (
	// RunFull solves and renders in one process (no shard flags).
	RunFull ShardMode = iota
	// RunShard solves one shard and writes it to the shard directory.
	RunShard
	// RunMerge reads shard files and renders the merged result.
	RunMerge
)

// Mode validates the flag combination and returns the run shape plus the
// parsed shard selection (meaningful only for RunShard).
func (f *ShardFlags) Mode() (ShardMode, sweep.ShardSel, error) {
	if err := sweep.CheckFormat(*f.Format); err != nil {
		return RunFull, sweep.ShardSel{}, err
	}
	if *f.Level != 0 && *f.Format == sweep.FormatJSON {
		return RunFull, sweep.ShardSel{}, fmt.Errorf("-level only applies to the recio format; json shards are not compressed")
	}
	switch {
	case *f.Merge && *f.Spec != "":
		return RunFull, sweep.ShardSel{}, fmt.Errorf("-merge and -shard are mutually exclusive")
	case *f.Merge:
		if *f.Dir == "" {
			return RunFull, sweep.ShardSel{}, fmt.Errorf("-merge needs -shard-dir")
		}
		if *f.Resume {
			return RunFull, sweep.ShardSel{}, fmt.Errorf("-resume only applies to -shard runs")
		}
		return RunMerge, sweep.ShardSel{}, nil
	case *f.Spec != "":
		sel, err := sweep.ParseShardSel(*f.Spec)
		if err != nil {
			return RunFull, sweep.ShardSel{}, err
		}
		if *f.Dir == "" {
			return RunFull, sweep.ShardSel{}, fmt.Errorf("-shard needs -shard-dir")
		}
		if *f.Resume && *f.Format != sweep.FormatRecio {
			return RunFull, sweep.ShardSel{}, fmt.Errorf("-resume needs -format recio: json shards are written whole at the end and leave nothing to resume")
		}
		return RunShard, sel, nil
	default:
		if *f.Dir != "" {
			return RunFull, sweep.ShardSel{}, fmt.Errorf("-shard-dir needs -shard or -merge")
		}
		if *f.Resume {
			return RunFull, sweep.ShardSel{}, fmt.Errorf("-resume needs -shard and -shard-dir")
		}
		return RunFull, sweep.ShardSel{}, nil
	}
}

// Store materializes the ShardStore the flags describe, stamping the
// run's provenance (tool name, topology seed, worker count) into the
// shard-file header.
func (f *ShardFlags) Store(tool string, seed int64, workers int) sweep.ShardStore {
	return sweep.ShardStore{
		Dir:     *f.Dir,
		Format:  *f.Format,
		Resume:  *f.Resume,
		Level:   int(*f.Level),
		Tool:    tool,
		Seed:    seed,
		Workers: workers,
	}
}

// NoteShard reports a completed shard write on stderr, including how
// much of it a resumed run recovered instead of re-solving.
func NoteShard(rep sweep.ShardReport) {
	if rep.Resumed > 0 {
		how := "checkpoint replay"
		if rep.SeekResume {
			how = "index seek"
		}
		fmt.Fprintf(os.Stderr, "shard cells [%d,%d): %d records resumed via %s, %d solved, written to %s\n",
			rep.CellLo, rep.CellHi, rep.Resumed, how, rep.Solved, rep.Path)
		return
	}
	fmt.Fprintf(os.Stderr, "shard cells [%d,%d): %d records written to %s\n",
		rep.CellLo, rep.CellHi, rep.Solved, rep.Path)
}

// RunStudy runs the study in the shape the shard flags select. A -shard
// run persists its slice into -shard-dir, notes it on stderr and returns
// ok = false: there is nothing to render. A full or -merge run returns
// the result for the tool to render. tool and seed are provenance for
// the shard-file header.
func RunStudy[R, Out any](sh *ShardFlags, w *experiments.World, study experiments.Study[R, Out], tool string, seed int64) (Out, bool, error) {
	var zero Out
	mode, sel, err := sh.Mode()
	if err != nil {
		return zero, false, err
	}
	switch mode {
	case RunShard:
		rep, err := study.Persist(w, sel, sh.Store(tool, seed, study.Workers()))
		if err != nil {
			return zero, false, err
		}
		NoteShard(rep)
		return zero, false, nil
	case RunMerge:
		files, err := sweep.ReadShardDir[R](*sh.Dir, study.Tag())
		if err != nil {
			return zero, false, err
		}
		out, err := study.Merge(w, files)
		return out, err == nil, err
	}
	out, err := study.Run(w)
	return out, err == nil, err
}

// WriteChart creates path, renders a chart into it and closes it, then
// notes the file on stderr. A failed render or close is returned.
func WriteChart(path string, render func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(fh); err != nil {
		fh.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := fh.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "chart written to %s\n", path)
	return nil
}

// BuildWorld materializes the World the flags describe.
func (f *WorldFlags) BuildWorld() (*experiments.World, error) {
	var opts []core.PolicyOption
	if *f.NoSPF {
		opts = append(opts, core.WithTier1ShortestPath(false))
	}
	if *f.TopoFile != "" {
		fh, err := os.Open(*f.TopoFile)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		g, err := topology.Parse(fh)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", *f.TopoFile, err)
		}
		return experiments.WorldFromGraph(g, opts...)
	}
	p := topology.DefaultParams(*f.Scale)
	p.Seed = *f.Seed
	return experiments.NewWorldWithParams(p, opts...)
}

// Describe prints a one-line world summary to stderr so experiment output
// stays clean on stdout.
func Describe(w *experiments.World) {
	fmt.Fprintf(os.Stderr, "world: %d ASes, %d links, %d tier-1s, %d tier-2s, max depth %d, %d transit\n",
		w.Graph.N(), w.Graph.Edges(), len(w.Class.Tier1), len(w.Class.Tier2),
		w.Class.MaxDepth(), len(w.Graph.TransitNodes()))
}
