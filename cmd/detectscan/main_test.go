package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
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

// TestShardMergeStdoutIdentity: Figure 7 split into two shards and
// merged prints exactly what the full run prints.
func TestShardMergeStdoutIdentity(t *testing.T) {
	checkShardMerge(t, "-scale", "600", "-seed", "3", "-attacks", "200")
}

// TestEmptyProbeSetFailsEveryShape: -bgpmon-probes -1 leaves case 2
// without probes, which the full, shard and merge runs all reject.
func TestEmptyProbeSetFailsEveryShape(t *testing.T) {
	base := []string{"-scale", "600", "-seed", "3", "-attacks", "50"}
	dir := t.TempDir()
	shard := append([]string{"-shard-dir", dir}, base...)
	// Valid shards of the same attack matrix: only the probe check can
	// make the merge below fail.
	stdoutOf(t, append(shard, "-shard", "0/1")...)
	for _, extra := range [][]string{nil, {"-shard-dir", t.TempDir(), "-shard", "0/1"}, {"-shard-dir", dir, "-merge"}} {
		args := append(append([]string{"-bgpmon-probes", "-1"}, base...), extra...)
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "is empty") {
			t.Errorf("%v: want the empty-probe-set error, got %v", args, err)
		}
	}
}

// TestMergeRejectsOtherProbeSets: shards solved under -bgpmon-probes 24
// and 30 count triggers against different probe sets, so their merge
// fails on the matrix digest instead of printing a mixed table.
func TestMergeRejectsOtherProbeSets(t *testing.T) {
	base := []string{"-scale", "600", "-seed", "3", "-attacks", "50", "-format", "recio", "-shard-dir", t.TempDir()}
	stdoutOf(t, append(base, "-shard", "0/2", "-bgpmon-probes", "24")...)
	stdoutOf(t, append(base, "-shard", "1/2", "-bgpmon-probes", "30")...)
	for _, probes := range []string{"24", "30"} {
		err := run(append(base, "-merge", "-bgpmon-probes", probes), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("merge at -bgpmon-probes %s: want a matrix digest mismatch, got %v", probes, err)
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
