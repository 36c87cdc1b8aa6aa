// Command bench is the repository's one benchmark: six workloads over
// the three pipelines (batch sweep, shard store, hijackd queries,
// firehose replay), end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run, with every output
// verified. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-quick]
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/bgpsim/bgpsim/internal/xmaps"
)

// defaultSeconds is the measurement budget per workload that
// BENCHMARK.json's run_seconds names; phase sizes and golden digests are
// stated for it.
const defaultSeconds = 10

// env is one invocation's settings, shared by every workload.
type env struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	nproc   int
	outDir  string
	log     io.Writer
}

// measure calls pass at least atLeast times and then until the run's
// measurement budget is spent: all of -seconds in an untraced run, three
// tenths of it in a traced run, whose time goes to the stage loops, and
// nothing beyond atLeast in a -quick run. Every pass executes the same
// operations, so medians over passes compare across commits however many
// passes fit.
func (e *env) measure(atLeast int, pass func() error) error {
	share := 1.0
	if e.trace {
		share = 0.3
	}
	deadline := time.Now().Add(time.Duration(share * e.seconds * float64(time.Second)))
	for i := 0; i < atLeast || (!e.quick && time.Now().Before(deadline)); i++ {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// pinned reports whether this run's inputs are the ones golden.json
// pins: seed 42 at full size and the default phase lengths.
func (e *env) pinned() bool {
	return e.seed == 42 && !e.quick && e.seconds == defaultSeconds
}

// tempDir makes a fresh scratch directory under the benchmark's output
// directory; the caller removes it.
func (e *env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, pattern)
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// check is one output verification.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is what one workload run produced.
type report struct {
	workload  string
	attempted int
	failed    int
	checks    []check
	values    map[string]float64
	samples   map[string]int
	digests   map[string]string
}

func newReport(workload string) *report {
	return &report{
		workload: workload,
		values:   make(map[string]float64),
		samples:  make(map[string]int),
		digests:  make(map[string]string),
	}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// ops adds operations to the attempted/failed tally.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of a
// single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of a -json results file: the result line plus
// what identifies the run, for -compare.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	Commit   string  `json:"commit"`
	resultLine
}

// result renders the report against the metric set of its mode. Every
// end-to-end metric must have been measured; a per-layer metric the
// workload never touched reads 0.
func (r *report) result(trace bool) (resultLine, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	res := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok && !trace {
			return res, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, then every check.
func (r *report) print(w io.Writer, trace bool) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "\n== %s ==\n", r.workload)
	units := make(map[string]string)
	listed := make(map[string]bool)
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range group {
			units[s.Name] = s.Unit
		}
	}
	for _, s := range specs {
		listed[s.Name] = true
		if v, ok := r.values[s.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.4f %-6s n=%d\n", s.Name, v, s.Unit, r.samples[s.Name])
		}
	}
	// Readings outside the mode's metric set (the workload-specific
	// numbers of an untraced run, the short untraced measurement of a
	// traced one) are still worth a line.
	for _, name := range xmaps.SortedKeys(r.values) {
		if !listed[name] {
			fmt.Fprintf(w, "  %-40s %16.4f %-6s n=%d (not in this mode's result)\n", name, r.values[name], units[name], r.samples[name])
		}
	}
	for _, name := range xmaps.SortedKeys(r.digests) {
		fmt.Fprintf(w, "  digest %-33s %s\n", name, r.digests[name])
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-34s %-6s %s\n", c.Name, status, c.Detail)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload by name (default: all six)")
	seed := fs.Int64("seed", 42, "seed for every input generator")
	seconds := fs.Float64("seconds", defaultSeconds, "measurement budget per workload, seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	quick := fs.Bool("quick", false, "tiny worlds and tens of operations: a smoke run, not a measurement")
	outDir := fs.String("out", "bench/out", "directory for scratch shard files and trace span files")
	jsonOut := fs.String("json", "", "append one JSON line per workload run to this file (input to -compare)")
	compare := fs.Bool("compare", false, "compare two -json result files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-quick] | bench -compare a b")
		return 2
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadSpec{*w}
	}
	e := &env{
		seed:    *seed,
		seconds: *seconds,
		quick:   *quick,
		trace:   *trace == 1,
		nproc:   runtime.GOMAXPROCS(0),
		outDir:  *outDir,
		log:     stdout,
	}
	e.logf("bench: GOMAXPROCS=%d nproc=%d %s %s/%s seed=%d seconds=%g trace=%d quick=%v commit=%s",
		e.nproc, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, e.seed, e.seconds, *trace, e.quick, commit())
	e.logf("bench: load comes from this one process over loopback; servers under test run in-process")
	e.logf("bench: not measured (needs spans inside the program): overload shedding, update-to-alert latency, solver counters other than DeltaStats")

	status := 0
	var last resultLine
	for i, w := range selected {
		if i > 0 {
			resetPeakRSS(e)
		}
		rep, err := w.run(e)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		rep.set("peak_rss_mb", peakRSSMB(), 1)
		rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
		rep.print(stdout, e.trace)
		res, err := rep.result(e.trace)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			status = 1
		}
		if *jsonOut != "" {
			rec := runRecord{Workload: w.Name, Seed: e.seed, Seconds: e.seconds, Trace: e.trace, Quick: e.quick, Commit: commit(), resultLine: res}
			if err := appendJSONLine(*jsonOut, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		last = res
	}
	if len(selected) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
