package cli

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// profileStrings decodes a pprof profile (gzipped protobuf, profile.proto)
// far enough to prove it is one: every top-level field must be well
// formed, and it returns the string table (field 6).
func profileStrings(data []byte) ([]string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	for len(raw) > 0 {
		key, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		raw = raw[n:]
		switch key & 7 {
		case 0:
			if _, n = binary.Uvarint(raw); n <= 0 {
				return nil, errors.New("bad varint")
			}
		case 1:
			n = 8
		case 2:
			size, m := binary.Uvarint(raw)
			if m <= 0 || uint64(len(raw)-m) < size {
				return nil, errors.New("bad length")
			}
			if key>>3 == 6 {
				strs = append(strs, string(raw[m:m+int(size)]))
			}
			n = m + int(size)
		case 5:
			n = 4
		default:
			return nil, errors.New("bad wire type")
		}
		if n > len(raw) {
			return nil, errors.New("truncated field")
		}
		raw = raw[n:]
	}
	return strs, nil
}

// TestCPUProfileFlag: without -cpuprofile Start writes nothing; with it,
// the file it leaves once stopped is a CPU profile, and a second profile
// cannot start while one runs.
func TestCPUProfileFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	prof := AddCPUProfileFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := prof.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	stop, err = prof.Start()
	if err != nil {
		t.Fatal(err)
	}
	second := AddCPUProfileFlag(flag.NewFlagSet("t2", flag.ContinueOnError))
	*second.path = filepath.Join(t.TempDir(), "second.pprof")
	if _, err := second.Start(); err == nil {
		t.Error("a second profile started while one was running")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	strs, err := profileStrings(data)
	if err != nil {
		t.Fatalf("%s is not a profile: %v", path, err)
	}
	for _, want := range []string{"samples", "cpu", "nanoseconds"} {
		if !slices.Contains(strs, want) {
			t.Errorf("profile string table %q lacks %q", strs, want)
		}
	}

	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir")}); err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Start(); err == nil {
		t.Error("a profile into a missing directory started")
	}
}
