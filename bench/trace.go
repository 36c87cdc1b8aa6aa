package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/bgpsim/bgpsim/internal/xmaps"
)

// span is one timed call into a layer's public function. Start and End
// are nanoseconds since the tracer was created; Parent indexes the span
// that was open when this one began (-1 at the root); spans of one
// operation (a cell, a request, a batch of updates) share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op_id"`
}

// tracer records spans in memory from one goroutine. A nil *tracer is
// the tracing-off state: begin and end do nothing, so the same loop runs
// traced and untraced and the difference is the tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// begin opens a span under the currently open one and returns its id.
func (t *tracer) begin(name string, op int) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Op: int32(op), Start: int64(time.Since(t.t0))})
	t.open = id
	return id
}

// end closes span id; spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// layerTimes is what the spans of one name add up to.
type layerTimes struct {
	selfNs float64   // duration minus the part child spans cover
	durUs  []float64 // every span's full duration, microseconds
}

// byLayer folds the spans per name. Children never overlap (one
// goroutine, strict nesting), so a span's self time is its duration
// minus the sum of its direct children's durations.
func (t *tracer) byLayer() map[string]*layerTimes {
	out := make(map[string]*layerTimes)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.selfNs += float64(d - child[i])
		lt.durUs = append(lt.durUs, float64(d)/1e3)
	}
	return out
}

// totalSelfS is the sum of every span's self time, in seconds — the
// traced loop's wall time as the layers account for it.
func totalSelfS(layers map[string]*layerTimes) float64 {
	t := 0.0
	for _, lt := range layers {
		t += lt.selfNs
	}
	return t / 1e9
}

// traceRounds is how often a traced run repeats its reference, untraced
// and traced loops: medians over rounds keep one scheduling hiccup from
// deciding coverage and overhead.
const traceRounds = 3

// traceRound is one round's three wall times, in seconds, and the
// traced loop's spans folded by name.
type traceRound struct {
	ref, untraced, traced float64
	layers                map[string]*layerTimes
}

// selfS is the summed self time, in seconds, of the named spans.
func (r traceRound) selfS(names ...string) float64 {
	t := 0.0
	for _, name := range names {
		if lt := r.layers[name]; lt != nil {
			t += lt.selfNs
		}
	}
	return t / 1e9
}

// overRounds is the median over rounds of f, which pairs quantities
// measured within a second of each other.
func overRounds(rounds []traceRound, f func(traceRound) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}

// stagedTrace runs traceRounds rounds of three walks over the same
// inputs — ref, the library's own single-thread run whose wall time the
// parts must add up to; staged(nil), the driver's stage loop untraced;
// staged(tracer), the same loop recording spans — and reports
// trace.coverage (summed self time over the reference wall) and
// trace.overhead_frac (traced over untraced stage loop), each a median
// over rounds. It prints where the last round's time went and writes
// that round's spans to trace-<workload>.json.
func (e *env) stagedTrace(rep *report, n int, ref func() (time.Duration, error), staged func(*tracer) (time.Duration, error)) ([]traceRound, error) {
	count := traceRounds
	if e.quick {
		count = 1
	}
	var rounds []traceRound
	var tr *tracer
	for i := 0; i < count; i++ {
		r, err := ref()
		if err != nil {
			return nil, err
		}
		u, err := staged(nil)
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		t, err := staged(tr)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, traceRound{ref: r.Seconds(), untraced: u.Seconds(), traced: t.Seconds(), layers: tr.byLayer()})
	}
	rep.set("trace.coverage", overRounds(rounds, func(r traceRound) float64 { return totalSelfS(r.layers) / r.ref }), n)
	rep.set("trace.overhead_frac", overRounds(rounds, func(r traceRound) float64 { return r.traced/r.untraced - 1 }), n)

	last := rounds[len(rounds)-1]
	e.logf("%s: traced self time by span in the last of %d rounds, against its reference wall of %.4f s", rep.workload, count, last.ref)
	for _, name := range xmaps.SortedKeys(last.layers) {
		e.logf("  %-28s %10.4f s %6.1f%%  spans=%d", name, last.selfS(name), 100*last.selfS(name)/last.ref, len(last.layers[name].durUs))
	}
	path, err := tr.write(e.outDir, rep.workload)
	if err != nil {
		return nil, err
	}
	e.logf("%s: %d spans written to %s", rep.workload, len(tr.spans), path)
	return rounds, nil
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
