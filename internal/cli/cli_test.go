package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/experiments"
)

func TestBuildWorldGenerated(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	wf := AddWorldFlags(fs)
	if err := fs.Parse([]string{"-scale", "300", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	w, err := wf.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph.N() < 250 {
		t.Errorf("N = %d", w.Graph.N())
	}
	if !w.Policy.Tier1ShortestPath() {
		t.Error("tier-1 SPF should default on")
	}
	Describe(w) // must not panic
}

func TestBuildWorldNoSPF(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	wf := AddWorldFlags(fs)
	if err := fs.Parse([]string{"-scale", "200", "-no-tier1-spf"}); err != nil {
		t.Fatal(err)
	}
	w, err := wf.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	if w.Policy.Tier1ShortestPath() {
		t.Error("-no-tier1-spf did not take effect")
	}
}

func TestBuildWorldFromTopoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.txt")
	content := "1|2|0\n1|10|-1\n2|11|-1\n10|20|-1\n11|21|-1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	wf := AddWorldFlags(fs)
	if err := fs.Parse([]string{"-topo", path}); err != nil {
		t.Fatal(err)
	}
	w, err := wf.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph.N() != 6 {
		t.Errorf("N = %d, want 6", w.Graph.N())
	}
}

// shardFlagSet builds a quiet FlagSet carrying the shard flags.
func shardFlagSet() (*flag.FlagSet, *ShardFlags) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, AddShardFlags(fs)
}

// TestLevelFlagValidation: -level is rejected at flag-parse time when
// outside gzip's 1..9, with an error naming the flag.
func TestLevelFlagValidation(t *testing.T) {
	for _, bad := range []string{"0", "10", "-3", "fast", ""} {
		fs, _ := shardFlagSet()
		err := fs.Parse([]string{"-level", bad})
		if err == nil {
			t.Errorf("-level %q accepted at parse time", bad)
			continue
		}
		if !strings.Contains(err.Error(), "level") {
			t.Errorf("-level %q: error %q does not name the flag", bad, err)
		}
	}
	for lvl := 1; lvl <= 9; lvl++ {
		fs, sf := shardFlagSet()
		if err := fs.Parse([]string{"-level", strconv.Itoa(lvl), "-format", "recio"}); err != nil {
			t.Fatalf("-level %d rejected: %v", lvl, err)
		}
		if int(*sf.Level) != lvl {
			t.Fatalf("-level %d parsed as %d", lvl, *sf.Level)
		}
		store := sf.Store("t", 1, 4)
		if store.Level != lvl {
			t.Fatalf("-level %d not threaded into ShardStore (got %d)", lvl, store.Level)
		}
	}
}

// TestLevelFlagModeChecks: -level with the uncompressed json format is
// a mode error; with recio it passes. Only json and recio are formats.
func TestLevelFlagModeChecks(t *testing.T) {
	fs, sf := shardFlagSet()
	if err := fs.Parse([]string{"-level", "5"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sf.Mode(); err == nil {
		t.Error("-level with the default json format accepted")
	}
	fs, sf = shardFlagSet()
	if err := fs.Parse([]string{"-level", "5", "-format", "recio", "-shard", "0/2", "-shard-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sf.Mode(); err != nil {
		t.Errorf("-level 5 -format recio rejected: %v", err)
	}
	// recio-col was folded into recio; the name is gone.
	fs, sf = shardFlagSet()
	if err := fs.Parse([]string{"-format", "recio-col", "-shard", "0/2", "-shard-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sf.Mode(); err == nil {
		t.Error("-format recio-col accepted")
	}
}

func TestBuildWorldErrors(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	wf := AddWorldFlags(fs)
	if err := fs.Parse([]string{"-topo", "/nonexistent/file"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.BuildWorld(); err == nil {
		t.Error("missing topo file accepted")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not|a|topology|at|all|x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	wf2 := AddWorldFlags(fs2)
	if err := fs2.Parse([]string{"-topo", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := wf2.BuildWorld(); err == nil {
		t.Error("malformed topo file accepted")
	}
}

// TestRunStudyShapes: a full run and the merge of two -shard runs return
// the same result; a shard run returns ok = false and renders nothing.
func TestRunStudyShapes(t *testing.T) {
	w, err := experiments.NewWorld(400, 2)
	if err != nil {
		t.Fatal(err)
	}
	study := experiments.HoleStudy(experiments.HoleConfig{Attacks: 60, Seed: 4})
	runWith := func(args ...string) (*experiments.HoleResult, bool) {
		t.Helper()
		fs, sh := shardFlagSet()
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		res, ok, err := RunStudy(sh, w, study, "t", 2)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return res, ok
	}
	full, ok := runWith()
	if !ok || full == nil {
		t.Fatal("full run returned nothing to render")
	}
	dir := t.TempDir()
	for _, sel := range []string{"1/2", "0/2"} {
		if res, ok := runWith("-shard", sel, "-shard-dir", dir); ok || res != nil {
			t.Fatalf("-shard %s returned a result to render", sel)
		}
	}
	merged, ok := runWith("-merge", "-shard-dir", dir)
	if !ok || !reflect.DeepEqual(merged, full) {
		t.Error("merged result differs from the full run")
	}
}

// TestWriteChartErrors: an unwritable path and a failing render both
// come back as errors; a good render leaves the chart on disk.
func TestWriteChartErrors(t *testing.T) {
	dir := t.TempDir()
	ok := func(w io.Writer) error { _, err := io.WriteString(w, "<svg/>"); return err }
	if err := WriteChart(filepath.Join(dir, "missing", "c.svg"), ok); err == nil {
		t.Error("unwritable path accepted")
	}
	boom := errors.New("render failed")
	if err := WriteChart(filepath.Join(dir, "bad.svg"), func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("failing render: got %v, want %v", err, boom)
	}
	path := filepath.Join(dir, "good.svg")
	if err := WriteChart(path, ok); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "<svg/>" {
		t.Errorf("chart on disk = %q, %v", b, err)
	}
}
