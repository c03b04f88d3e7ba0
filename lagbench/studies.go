package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/report"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// iterations tracks one run's repeated CLI invocations: each sample is
// one complete, checked result.
type iterations struct {
	wall, cpu, rss, ckptMB []float64
	// child is the gomaxprocs/num_cpu a lagreport child reported.
	child map[string]int
}

func (it *iterations) add(r procRun) {
	it.wall = append(it.wall, r.wall.Seconds())
	it.cpu = append(it.cpu, r.use.CPUSeconds)
	it.rss = append(it.rss, r.use.PeakRSSMB)
}

// loop repeats fn until the measuring time is spent and fn ran at
// least minIter times.
func (b *bench) loop(minIter int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < max(minIter, 1) || time.Since(start) < b.seconds; i++ {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// report stores the per-run medians shared by every CLI workload.
func (b *bench) reportIterations(it *iterations, records int) {
	wall := median(it.wall)
	b.metric("wall_s", "s", wall)
	b.metric("records_per_s", "1/s", float64(records)/wall)
	b.metric("cpu_s", "s", median(it.cpu))
	b.metric("peak_rss_mb", "MB", median(it.rss))
	b.record["iterations"] = len(it.wall)
	b.record["records"] = records
	b.record["wall_s_samples"] = it.wall
	if len(it.ckptMB) > 0 {
		b.record["checkpoint_mb"] = median(it.ckptMB)
	}
	if it.child != nil {
		b.record["child"] = it.child
	}
	b.record["failed_frac"] = float64(b.failed) / float64(max(b.attempted, 1))
}

func (b *bench) lagreport(args ...string) (procRun, error) {
	return runProc(b.ctx, b.binary("lagreport"), args...)
}

func (b *bench) seedArg() string { return strconv.FormatUint(b.seed, 10) }

// checkOutDir applies the -out checks: the rendered files equal want,
// runmeta.json reports the expected checkpoint hits, and the child ran
// on every CPU. It returns the checkpoint size in MB.
func checkOutDir(dir string, want map[string][]byte, hits int64, it *iterations) (float64, error) {
	got, err := readOut(dir)
	if err != nil {
		return 0, err
	}
	if err := sameFiles(got, want); err != nil {
		return 0, err
	}
	meta, err := readRunMeta(dir)
	if err != nil {
		return 0, err
	}
	if h := meta.Metrics.Counters["checkpoint_hits_total"]; h != hits {
		return 0, fmt.Errorf("runmeta checkpoint_hits_total = %d, want %d", h, hits)
	}
	if meta.GoMaxProcs < meta.NumCPU {
		return 0, fmt.Errorf("lagreport ran with gomaxprocs %d < num_cpu %d", meta.GoMaxProcs, meta.NumCPU)
	}
	it.child = map[string]int{"gomaxprocs": meta.GoMaxProcs, "num_cpu": meta.NumCPU}
	size, err := dirSize(filepath.Join(dir, ".checkpoint"))
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, fmt.Errorf("empty checkpoint under %s", dir)
	}
	return float64(size) / (1 << 20), nil
}

// studyRef is the in-process reference for a study's -out files.
type studyRef struct {
	files   map[string][]byte
	records int
}

// referenceStudy simulates the corpus in-process and renders what
// `lagreport -out` must write for the seed.
func (b *bench) referenceStudy(traceID string) (*studyRef, error) {
	col := newSuiteCollector()
	files, err := b.genCorpus(traceID, openSpan{}, corpusOpts{each: col.add})
	if err != nil {
		return nil, err
	}
	root := b.tr.root(traceID+"/analyze", "study")
	res := b.analyze(root, report.StudyConfig{Seed: b.seed}, col.suites())
	ref := &studyRef{files: b.renderOut(root, res), records: totalRecords(files)}
	root.end()
	return ref, nil
}

// studyCold: `lagreport -out <empty dir>`, the paper's headline path.
func (b *bench) studyCold() error {
	ref, err := setupTimed(b, func(int) (*studyRef, error) {
		if err := b.build("lagreport"); err != nil {
			return nil, err
		}
		ref, err := b.referenceStudy("setup")
		releaseMemory()
		return ref, err
	}, func(*studyRef) {})
	if err != nil {
		return err
	}
	it := &iterations{}
	var first []byte
	err = b.loop(1, func(i int) error {
		dir := filepath.Join(b.scratch, "cold")
		defer os.RemoveAll(dir)
		r, err := b.lagreport("-seed", b.seedArg(), "-out", dir)
		if err == nil {
			var mb float64
			if mb, err = checkOutDir(dir, ref.files, 0, it); err == nil {
				it.ckptMB = append(it.ckptMB, mb)
			}
		}
		if err == nil && first != nil && !sameOutput(r.stdout, first) {
			err = fmt.Errorf("cold run %d stdout differs from run 0", i)
		}
		if first == nil {
			first = r.stdout
		}
		b.op(err)
		it.add(r)
		return nil
	})
	if err != nil {
		return err
	}
	b.reportIterations(it, ref.records)
	return nil
}

// warmDir is a study-warm set-up product: an -out directory left by a
// cold run of the same binary, with that run's outputs as reference.
type warmDir struct {
	dir     string
	stdout  []byte
	files   map[string][]byte
	records int
}

func (b *bench) setupWarm(rep int) (*warmDir, error) {
	if err := b.build("lagreport"); err != nil {
		return nil, err
	}
	files, err := b.genCorpus("setup", openSpan{}, corpusOpts{})
	if err != nil {
		return nil, err
	}
	return b.makeWarmDir(fmt.Sprintf("warm%d", rep), totalRecords(files))
}

// makeWarmDir runs the cold path into a new -out directory and keeps
// its outputs as the warm runs' reference.
func (b *bench) makeWarmDir(name string, records int) (*warmDir, error) {
	w := &warmDir{dir: filepath.Join(b.scratch, name), records: records}
	r, err := b.lagreport("-seed", b.seedArg(), "-out", w.dir)
	if err != nil {
		return nil, err
	}
	w.stdout = r.stdout
	if w.files, err = readOut(w.dir); err != nil {
		return nil, err
	}
	if _, err := checkOutDir(w.dir, w.files, 0, &iterations{}); err != nil {
		return nil, fmt.Errorf("cold run for the warm directory: %w", err)
	}
	return w, nil
}

// studyWarm: the same command rerun on the directory a cold run left —
// the resume path, where checkpoint load replaces simulation.
func (b *bench) studyWarm() error {
	w, err := setupTimed(b, b.setupWarm, func(w *warmDir) { os.RemoveAll(w.dir) })
	if err != nil {
		return err
	}
	it := &iterations{}
	// One warm run's wall time swings by about 15% with load from
	// outside; the median of two halves that.
	err = b.loop(2, func(i int) error {
		r, err := b.lagreport("-seed", b.seedArg(), "-out", w.dir)
		if err == nil {
			var mb float64
			if mb, err = checkOutDir(w.dir, w.files, int64(len(apps.Catalog())), it); err == nil {
				it.ckptMB = append(it.ckptMB, mb)
			}
		}
		if err == nil && !sameOutput(r.stdout, w.stdout) {
			err = fmt.Errorf("warm run %d stdout differs from the cold run's", i)
		}
		b.op(err)
		it.add(r)
		return nil
	})
	if err != nil {
		return err
	}
	b.reportIterations(it, w.records)
	return nil
}

// tracesCorpus is the traces-v21 set-up product.
type tracesCorpus struct {
	dir     string
	want    []byte // the simulated study's stdout at the same seed
	records int
}

func (b *bench) setupTraces(rep int) (*tracesCorpus, error) {
	if err := b.build("lagreport"); err != nil {
		return nil, err
	}
	c := &tracesCorpus{dir: filepath.Join(b.scratch, fmt.Sprintf("corpus%d", rep))}
	files, err := b.genCorpus("setup", openSpan{}, corpusOpts{dir: c.dir})
	if err != nil {
		return nil, err
	}
	c.records = totalRecords(files)
	r, err := b.lagreport("-seed", b.seedArg())
	if err != nil {
		return nil, err
	}
	c.want = r.stdout
	return c, nil
}

// tracesV21: `lagreport -traces <dir>` over the seed's 56 sessions as
// compressed LiLa v2.1 — decode, treebuild and engine, no simulation
// and no checkpoint.
func (b *bench) tracesV21() error {
	c, err := setupTimed(b, b.setupTraces, func(c *tracesCorpus) { os.RemoveAll(c.dir) })
	if err != nil {
		return err
	}
	releaseMemory()
	it := &iterations{}
	// A run takes about 1.5 s; the median of five filters out a burst
	// of load from outside.
	err = b.loop(5, func(i int) error {
		r, err := b.lagreport("-traces", c.dir)
		if err == nil && !sameOutput(r.stdout, c.want) {
			err = fmt.Errorf("traces run %d stdout differs from the simulated study's", i)
		}
		b.op(err)
		it.add(r)
		return nil
	})
	if err != nil {
		return err
	}
	b.reportIterations(it, c.records)
	return nil
}

// --- traced runs ---

// tracedStudyCold calls sim, treebuild, engine, checkpoint save and
// render in-process, and compares the renders with one untraced
// `lagreport -out` run.
func (b *bench) tracedStudyCold() error {
	if err := b.build("lagreport"); err != nil {
		return err
	}
	dir := filepath.Join(b.scratch, "cold")
	_, err := b.lagreport("-seed", b.seedArg(), "-out", dir)
	b.op(err)
	if err != nil {
		return nil
	}
	want, err := readOut(dir)
	if err != nil {
		return err
	}
	os.RemoveAll(dir)

	col := newSuiteCollector()
	root := b.tr.root("study", "study")
	if _, err := b.genCorpus("study", root, corpusOpts{each: col.add}); err != nil {
		return err
	}
	cfg := report.StudyConfig{Seed: b.seed}
	store, err := checkpoint.Open(filepath.Join(b.scratch, "traced", ".checkpoint"), cfg.Hash())
	if err != nil {
		return err
	}
	suites := col.suites()
	for _, s := range suites {
		sp := root.child(spSave)
		err := store.Save(s)
		sp.end()
		if err != nil {
			return err
		}
	}
	res := b.analyze(root, cfg, suites)
	got := b.renderOut(root, res)
	root.end()
	size, err := dirSize(store.Dir())
	if err != nil {
		return err
	}
	b.tr.count(cCheckpointBytes, float64(size))
	b.op(sameFiles(got, want))
	return nil
}

// tracedStudyWarm saves the study to a checkpoint store in set-up, then
// loads it, analyzes and renders in-process, and compares the renders
// with an untraced warm `lagreport -out` run.
func (b *bench) tracedStudyWarm() error {
	if err := b.build("lagreport"); err != nil {
		return err
	}
	cfg := report.StudyConfig{Seed: b.seed}
	storeDir := filepath.Join(b.scratch, "traced", ".checkpoint")
	var files []*corpusFile
	err := b.asSetup(func() error {
		col := newSuiteCollector()
		var err error
		if files, err = b.genCorpus("setup", openSpan{}, corpusOpts{each: col.add}); err != nil {
			return err
		}
		store, err := checkpoint.Open(storeDir, cfg.Hash())
		if err != nil {
			return err
		}
		save := b.tr.root("setup/save", "save")
		defer save.end()
		for _, s := range col.suites() {
			sp := save.child(spSave)
			err := store.Save(s)
			sp.end()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	releaseMemory()

	w, err := b.makeWarmDir("warm", totalRecords(files))
	if err != nil {
		return err
	}
	_, err = b.lagreport("-seed", b.seedArg(), "-out", w.dir)
	if err == nil {
		_, err = checkOutDir(w.dir, w.files, int64(len(apps.Catalog())), &iterations{})
	}
	b.op(err)
	os.RemoveAll(w.dir)

	// Reopen as the warm CLI does: a fresh process finds the manifest.
	root := b.tr.root("study", "study")
	store, err := checkpoint.Open(storeDir, cfg.Hash())
	if err != nil {
		return err
	}
	hits0 := counter("checkpoint_hits_total")
	var suites []*trace.Suite
	for _, p := range apps.Catalog() {
		sp := root.child(spLoad)
		s, ok := store.Load(p.Name)
		sp.end()
		if !ok {
			return fmt.Errorf("checkpoint miss for %s", p.Name)
		}
		suites = append(suites, s)
	}
	b.tr.count(cCheckpointHits, float64(counter("checkpoint_hits_total")-hits0))
	res := b.analyze(root, cfg, suites)
	got := b.renderOut(root, res)
	root.end()
	size, err := dirSize(storeDir)
	if err != nil {
		return err
	}
	b.tr.count(cCheckpointBytes, float64(size))
	b.op(sameFiles(got, w.files))
	return nil
}

// tracedTracesV21 encodes the corpus in set-up, then decodes, rebuilds,
// analyzes and renders it in-process, and compares the renders with an
// untraced `lagreport -traces <dir> -out` run.
func (b *bench) tracedTracesV21() error {
	if err := b.build("lagreport"); err != nil {
		return err
	}
	dir := filepath.Join(b.scratch, "corpus")
	var files []*corpusFile
	err := b.asSetup(func() (err error) {
		files, err = b.genCorpus("setup", openSpan{}, corpusOpts{dir: dir})
		return err
	})
	if err != nil {
		return err
	}
	outDir := filepath.Join(b.scratch, "out")
	_, err = b.lagreport("-traces", dir, "-out", outDir)
	b.op(err)
	if err != nil {
		return nil
	}
	want, err := readOut(outDir)
	if err != nil {
		return err
	}
	releaseMemory()

	root := b.tr.root("load", "load")
	byApp := map[string]*trace.Suite{}
	for _, f := range files {
		s, err := b.decodeBuild(root, f.path, nil)
		if err != nil {
			return err
		}
		if byApp[s.App] == nil {
			byApp[s.App] = &trace.Suite{App: s.App}
		}
		byApp[s.App].Sessions = append(byApp[s.App].Sessions, s)
	}
	// The loader orders suites by app name and sessions by path.
	var suites []*trace.Suite
	for _, name := range sortedKeys(byApp) {
		suites = append(suites, byApp[name])
	}
	res := b.analyze(root, report.StudyConfig{}, suites)
	got := b.renderOut(root, res)
	root.end()
	b.op(sameFiles(got, want))
	return nil
}

// decodeBuild loads one v2.1 file the way the trace loader does: map
// it, decode every block on one worker, rebuild the session. use, when
// set, sees the decoded records while the file is still mapped.
func (b *bench) decodeBuild(parent openSpan, path string, use func(lila.Header, []*lila.Record) error) (*trace.Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	inflated0, skipped0 := counter("lila_blocks_inflated_total"), counter("lila_blocks_skipped_total")
	sp := parent.child(spDecode)
	v, err := lila.OpenV2File(f, lila.Limits{})
	if err != nil {
		sp.end()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defer v.Close()
	recs, _, err := v.RecordsJobs(nil, false, 1)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b.tr.count(cDecodeRecords, float64(len(recs)))
	b.tr.count(cDecodeBytes, float64(v.Size()))
	b.tr.count(cBlocksInflated, float64(counter("lila_blocks_inflated_total")-inflated0))
	b.tr.count(cBlocksSkipped, float64(counter("lila_blocks_skipped_total")-skipped0))

	sp = parent.child(spTreebuild)
	s, _, err := treebuild.BuildRecords(v.Header(), recs)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b.tr.count(cTreeRecords, float64(len(recs)))
	if use != nil {
		if err := use(v.Header(), recs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// counter reads a metric from the process-wide obs registry.
func counter(name string) int64 {
	return obs.Default().Snapshot().Counters[name]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
