package main

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bgpsim/bgpsim/internal/experiments"
)

// TestLevelFlagRejectedAtParse: an out-of-range -level must fail during
// flag parsing — before any topology is built — with an error naming
// the flag.
func TestLevelFlagRejectedAtParse(t *testing.T) {
	for _, bad := range []string{"0", "10", "-2", "best"} {
		err := run([]string{"-level", bad, "-format", "recio", "-shard", "0/2", "-shard-dir", t.TempDir()}, io.Discard)
		if err == nil {
			t.Fatalf("-level %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "level") {
			t.Fatalf("-level %q: error %q does not name the flag", bad, err)
		}
	}
}

// TestLevelFlagAccepted: a legal -level survives flag parsing and mode
// validation (the run then fails on the deliberately missing
// -shard-dir, proving it got past the flag layer).
func TestLevelFlagAccepted(t *testing.T) {
	err := run([]string{"-level", "9", "-format", "recio", "-shard", "0/2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-shard-dir") {
		t.Fatalf("want the -shard-dir mode error after accepting -level 9, got: %v", err)
	}
}

// TestShardMergeStdoutIdentity: the hole analysis split into two shards
// and merged prints exactly what the full run prints.
func TestShardMergeStdoutIdentity(t *testing.T) {
	checkShardMerge(t, "-scale", "600", "-seed", "3", "-attacks", "200")
}

// TestBGPmonProbesAreFig7Case2: -probes bgpmon evaluates Figure 7's
// case-2 set at the same seed, drawn from the experiments' own probe
// stream rather than the topology generator's.
func TestBGPmonProbesAreFig7Case2(t *testing.T) {
	const seed = 1
	w, err := experiments.NewWorld(3000, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := probeSet(w, "bgpmon", seed)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := experiments.Fig7(w, experiments.DetectionConfig{Attacks: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if want := fig7.Cases[1].Result.ProbeSet; !reflect.DeepEqual(got, want) {
		t.Errorf("-probes bgpmon = %v, want Figure 7 case 2 %v", got, want)
	}
}

// TestMergeRejectsOtherProbes: shards solved under -probes tier1 and
// -probes bgpmon judge detection by different probes, so their merge
// fails on the matrix digest instead of printing a mixed analysis.
func TestMergeRejectsOtherProbes(t *testing.T) {
	base := []string{"-scale", "600", "-seed", "3", "-attacks", "50", "-shard-dir", t.TempDir()}
	stdoutOf(t, append(base, "-shard", "0/2", "-probes", "tier1")...)
	stdoutOf(t, append(base, "-shard", "1/2", "-probes", "bgpmon")...)
	for _, probes := range []string{"tier1", "bgpmon"} {
		err := run(append(base, "-merge", "-probes", probes), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("merge at -probes %s: want a matrix digest mismatch, got %v", probes, err)
		}
	}
}

// stdoutOf runs the tool and returns what it printed on stdout.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String()
}

// checkShardMerge holds `-shard 1/2` + `-shard 0/2` + `-merge`, in json
// and in recio, and the full run under -cpuprofile, to the stdout of the
// full run with the same flags.
func checkShardMerge(t *testing.T, args ...string) {
	t.Helper()
	want := stdoutOf(t, args...)
	if got := stdoutOf(t, append(args, "-cpuprofile", filepath.Join(t.TempDir(), "cpu.pprof"))...); got != want {
		t.Errorf("%v -cpuprofile: stdout differs from the run without it\ngot:\n%s\nwant:\n%s", args, got, want)
	}
	for _, format := range []string{"json", "recio"} {
		shardArgs := append([]string{"-format", format, "-shard-dir", t.TempDir()}, args...)
		for _, sel := range []string{"1/2", "0/2"} {
			if out := stdoutOf(t, append(shardArgs, "-shard", sel)...); out != "" {
				t.Errorf("%v -format %s -shard %s printed %q; a shard run renders nothing", args, format, sel, out)
			}
		}
		if got := stdoutOf(t, append(shardArgs, "-merge")...); got != want {
			t.Errorf("%v -format %s: merged stdout differs from the full run\ngot:\n%s\nwant:\n%s", args, format, got, want)
		}
	}
}
