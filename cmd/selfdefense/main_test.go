package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutIdentity holds the Section VII tables and the mitigation
// study on the seed-7 2,000-AS world to a golden copy of their stdout.
func TestStdoutIdentity(t *testing.T) {
	want, err := os.ReadFile("testdata/scale2000_seed7_mitigate.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-scale", "2000", "-seed", "7", "-mitigate"}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stdout differs from testdata/scale2000_seed7_mitigate.txt:\n%s", out.Bytes())
	}
}
