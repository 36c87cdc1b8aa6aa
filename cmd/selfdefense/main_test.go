package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutIdentity holds the Section VII tables and the mitigation
// study on the seed-7 2,000-AS world to a golden copy of their stdout,
// with and without -cpuprofile.
func TestStdoutIdentity(t *testing.T) {
	want, err := os.ReadFile("testdata/scale2000_seed7_mitigate.txt")
	if err != nil {
		t.Fatal(err)
	}
	// With -cpuprofile too: profiling must not change a byte of stdout.
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	for _, extra := range [][]string{nil, {"-cpuprofile", path}} {
		var out bytes.Buffer
		if err := run(append([]string{"-scale", "2000", "-seed", "7", "-mitigate"}, extra...), &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%v: stdout differs from testdata/scale2000_seed7_mitigate.txt:\n%s", extra, out.Bytes())
		}
	}
}
