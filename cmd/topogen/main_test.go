package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// Digests of the seed-42 2,000-AS world as topogen prints it: the CAIDA
// text on stdout and the -stats report on stderr.
const (
	scale2000Seed42Topo  = "1f92883db3cc634eef0d5ce82deb0b9ffb7aaa4909a457591ab3bc2111bbc5ce"
	scale2000Seed42Stats = "edad069af04d8bc4b31e2a7298c04717437047f8a32d71a94e823912a7a5587c"
)

func runTopogen(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("topogen %v: %v", args, err)
	}
	return out.Bytes(), errOut.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStdoutIdentity pins the generated topology and its statistics by
// digest, and checks that loading the output with -topo re-emits it byte
// for byte with the same statistics.
func TestStdoutIdentity(t *testing.T) {
	topo, stats := runTopogen(t, "-scale", "2000", "-seed", "42", "-stats")
	if got := digest(topo); got != scale2000Seed42Topo {
		t.Errorf("stdout sha256 = %s, want %s", got, scale2000Seed42Topo)
	}
	if got := digest(stats); got != scale2000Seed42Stats {
		t.Errorf("-stats sha256 = %s, want %s\n%s", got, scale2000Seed42Stats, stats)
	}
	if plain, _ := runTopogen(t, "-scale", "2000", "-seed", "42"); !bytes.Equal(plain, topo) {
		t.Error("-stats changed stdout")
	}

	path := filepath.Join(t.TempDir(), "topo.txt")
	if err := os.WriteFile(path, topo, 0o644); err != nil {
		t.Fatal(err)
	}
	again, againStats := runTopogen(t, "-topo", path, "-stats")
	if !bytes.Equal(again, topo) {
		t.Error("-topo did not re-emit the generated topology byte for byte")
	}
	if !bytes.Equal(againStats, stats) {
		t.Errorf("-topo stats differ:\n%s\nwant\n%s", againStats, stats)
	}
}

// TestOutputFile checks that -o writes what stdout would carry.
func TestOutputFile(t *testing.T) {
	want, _ := runTopogen(t, "-scale", "300", "-seed", "3")
	path := filepath.Join(t.TempDir(), "out.txt")
	if out, _ := runTopogen(t, "-scale", "300", "-seed", "3", "-o", path); len(out) != 0 {
		t.Errorf("-o also wrote %d bytes to stdout", len(out))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("-o file differs from stdout")
	}
}
