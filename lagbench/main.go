// Command lagbench is LagAlyzer's end-to-end benchmark. It builds the
// real binaries from the checkout it runs in, drives them as
// subprocesses over seeded workloads, checks their outputs, and prints
// one JSON result line. With -trace 1 it instead calls each layer's
// public functions in-process, records spans around those calls, and
// reports the per-layer ledger.
//
// Usage, from the repository root:
//
//	bash lagbench/run.sh --workload study-cold --seed 1 --seconds 5 --trace 0
//
// See lagbench/README.md for the workloads, metrics and predictions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and only the last set-up's products are measured. Two keeps
// the slowest workload's run (two cold studies of set-up) short enough
// for many runs per workload on a 2-core box.
const setupReps = 2

// workload is one named input set: an untraced run measuring the
// end-to-end metrics and a traced run measuring the per-layer ones.
type workload struct {
	name   string
	run    func(b *bench) error
	traced func(b *bench) error
}

var workloads = []workload{
	{"study-cold", (*bench).studyCold, (*bench).tracedStudyCold},
	{"study-warm", (*bench).studyWarm, (*bench).tracedStudyWarm},
	{"traces-v21", (*bench).tracesV21, (*bench).tracedTracesV21},
	{"lagd-mixed", (*bench).lagdMixed, (*bench).tracedLagdMixed},
}

// bench is one run's context: where it builds and writes, its seed and
// measuring time, and what it has measured so far.
type bench struct {
	ctx     context.Context
	root    string // repository checkout (the working directory)
	scratch string // this run's files, removed at exit
	bin     string // built CLIs
	seed    uint64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil in untraced runs
	setupTr *tracer // a traced run's set-up spans, kept out of the ledger

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	record            map[string]any // written beside the result, not gated
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// asSetup runs a traced run's set-up with its spans and counters going
// to the set-up tracer, so the ledger holds only the measured
// operations: a layer that does no work in them reports 0, and none is
// counted twice.
func (b *bench) asSetup(fn func() error) error {
	measured := b.tr
	b.tr = b.setupTr
	defer func() { b.tr = measured }()
	return fn()
}

func (b *bench) metric(name, unit string, v float64) {
	b.metrics[name] = metric{v, unit}
}

// setupTimed runs set-up setupReps times, records the median as
// setup_s, and returns the last repetition's products; earlier ones
// are released with discard. A failing repetition must leave nothing
// running.
func setupTimed[T any](b *bench, setup func(rep int) (T, error), discard func(T)) (T, error) {
	var last T
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := setup(rep)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	b.metric("setup_s", "s", median(secs))
	b.record["setup_s_samples"] = secs
	return last, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: study-cold, study-warm, traces-v21, lagd-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "lagbench:", err)
		return 1
	}
	return 0
}

func mainErr(name string, seed uint64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := checkRepo(root); err != nil {
		return err
	}
	env, err := collectEnv(root)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(root, ".bench_build")
	scratch, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	b := &bench{
		ctx:     ctx,
		root:    root,
		scratch: scratch,
		bin:     filepath.Join(scratch, "bin"),
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		nproc:   runtime.NumCPU(),
		metrics: map[string]metric{},
		record:  map[string]any{"env": env},
	}
	if traced {
		b.tr, b.setupTr = newTracer(), newTracer()
		err = w.traced(b)
	} else {
		err = w.run(b)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		ledger := b.tr.ledger()
		setup := b.setupTr.ledger()
		// No measured operation writes LiLa: encoding is set-up work on
		// every workload, so its layer is reported from the set-up spans.
		for _, k := range []string{"lila.encode.busy_s", "lila.encode.bytes"} {
			ledger[k] = setup[k]
		}
		b.record["setup_ledger"] = setup
		for _, m := range perLayer {
			b.metric(m.name, m.unit, ledger[m.name])
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "lagbench: check failed:", p)
	}
	return b.report(work, name, traced)
}

// checkRepo refuses to run anywhere but a LagAlyzer checkout.
func checkRepo(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !containsLine(string(data), "module lagalyzer") {
		return errors.New("run from the root of a lagalyzer checkout (no go.mod for module lagalyzer here)")
	}
	for _, c := range []string{"lagreport", "lagd"} {
		if _, err := os.Stat(filepath.Join(root, "cmd", c)); err != nil {
			return fmt.Errorf("checkout has no cmd/%s: %w", c, err)
		}
	}
	return nil
}

// report prints the human-readable record, stores it with the spans
// under .bench_build/results, and prints the JSON result last.
func (b *bench) report(work, name string, traced bool) error {
	mode := "trace0"
	if traced {
		mode = "trace1"
	}
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, b.seed, mode))
	if traced {
		if err := b.tr.writeSpans(base + ".spans.jsonl"); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		if err := b.setupTr.writeSpans(base + ".setup.spans.jsonl"); err != nil {
			return fmt.Errorf("writing set-up spans: %w", err)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, b.metrics}
	for _, k := range sortedKeys(b.metrics) {
		m := b.metrics[k]
		fmt.Printf("%-28s %14s %s\n", k, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	b.record["result"] = out
	b.record["workload"], b.record["seed"], b.record["seconds"] = name, b.seed, b.seconds.Seconds()
	rec, err := json.Marshal(b.record)
	if err != nil {
		return err
	}
	fmt.Printf("record: %s\n", rec)
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
