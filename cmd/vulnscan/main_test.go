package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
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

// TestShardMergeStdoutIdentity: Figures 2, 3 and 4 split into two
// shards and merged print exactly what the full run prints.
func TestShardMergeStdoutIdentity(t *testing.T) {
	for _, panel := range [][]string{nil, {"-hierarchy", "tier2"}, {"-stubfilter"}} {
		checkShardMerge(t, append([]string{"-scale", "600", "-seed", "3", "-sample", "50"}, panel...)...)
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

// TestMergeRejectsDigestFreeShards: shards whose matrix_digest lines were
// stripped carry nothing that ties them to a workload, so a merge refuses
// them by file and line rather than print a ROV-defended run as the
// undefended figure.
func TestMergeRejectsDigestFreeShards(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "400", "-sample", "50", "-shard-dir", dir}
	for _, sel := range []string{"0/2", "1/2"} {
		stdoutOf(t, append(args, "-defense", "rov", "-shard", sel)...)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("shard files %v (%v), want 2", paths, err)
	}
	digestLine := regexp.MustCompile(`(?m)^\s*"matrix_digest":.*\n`)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		stripped := digestLine.ReplaceAll(data, nil)
		if bytes.Equal(stripped, data) {
			t.Fatalf("%s has no matrix_digest line to strip", p)
		}
		if err := os.WriteFile(p, stripped, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = run(append(args, "-merge"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), paths[0]+":1") || !strings.Contains(err.Error(), "no matrix digest") {
		t.Fatalf("merge of digest-free shards: err = %v, want a refusal naming %s:1", err, paths[0])
	}
}
