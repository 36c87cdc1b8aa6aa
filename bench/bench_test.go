package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesSpec holds BENCHMARK.json and spec.go to one
// vocabulary, inside the limits the driver enforces.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, bench default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bf.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []benchmarkMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the driver's alphabet", m.Name, m.Unit)
			}
			s := want[i]
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], spec.go has %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go, must agree and lie in (0, 0.25]", m.Name, m.Bound, s.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", m.Name)
			}
		}
	}
	compare("end-to-end", bf.EndToEnd, endToEnd, true)
	compare("per-layer", bf.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestQuickRun runs every workload at -quick size in both modes and
// checks what the driver checks: the last line is the result object, it
// carries exactly the mode's metrics under BENCHMARK.json's names and
// units, every end-to-end value is non-zero and every verification passed.
func TestQuickRun(t *testing.T) {
	bf := readBenchmarkFile(t)
	out := t.TempDir()
	for _, mode := range []struct {
		trace string
		want  []benchmarkMetric
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		for _, w := range bf.Workloads {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", mode.trace, "-quick", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, mode.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", w.Name, mode.trace, err, lines[len(lines)-1])
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
				t.Fatalf("%s trace=%s: result lacks a key: %s", w.Name, mode.trace, lines[len(lines)-1])
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, mode.trace, *res.Correct, *res.Attempted, *res.Failed, stdout.String())
			}
			if strings.Contains(stdout.String(), "FAILED") {
				t.Errorf("%s trace=%s: a check failed\n%s", w.Name, mode.trace, stdout.String())
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s not emitted", w.Name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s has unit %q, BENCHMARK.json says %q", w.Name, mode.trace, m.Name, got.Unit, m.Unit)
				case mode.trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, got.Value)
				}
			}
			if mode.trace == "1" {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no span file: %v", w.Name, err)
				}
			}
		}
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			t.Errorf("scratch directory %s was left behind", ent.Name())
		}
	}
}

// TestUsageErrors: a bad invocation exits non-zero without a result line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"-compare", "only-one.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("bench %v exited 0", args)
		}
		if strings.Contains(stdout.String(), `"metrics"`) {
			t.Errorf("bench %v printed a result", args)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre * 0.995, centre * 1.005}
	}
	noisy := func(centre float64) []float64 {
		return []float64{centre * 0.8, centre * 0.9, centre, centre * 1.1, centre * 1.2}
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"unchanged", tight(100), tight(101), lower, "ok"},
		{"slower beyond bound", tight(100), tight(115), lower, "regressed"},
		{"faster", tight(100), tight(80), lower, "ok"},
		{"throughput fell", tight(1000), tight(850), higher, "regressed"},
		{"throughput rose", tight(1000), tight(1200), higher, "ok"},
		{"spread wider than bound", noisy(100), noisy(105), lower, "unresolved"},
		{"noisy but every run better", noisy(100), tight(70), lower, "ok"},
		{"noisy and every run worse", noisy(100), tight(130), lower, "regressed"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.spec); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles drives -compare through result files as -json writes
// them.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			rec := runRecord{Workload: "sweep_paper", Seed: int64(i), Seconds: 10, resultLine: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"ops_per_s": {Value: opsPerS * (1 + 0.002*float64(i)), Unit: "1/s"},
			}}}
			if err := appendJSONLine(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 700), write("same.jsonl", 702), write("slow.jsonl", 400)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, same}, &stdout, &stderr); code != 0 {
		t.Errorf("equal sets: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-compare", a, slow}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "regressed") {
		t.Errorf("slower set: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}
