package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// sessionsPerApp is the default study's session count (14 apps × 4).
const sessionsPerApp = 4

// corpusFile is one session of the seeded corpus.
type corpusFile struct {
	index   int
	app     string
	id      int
	name    string // <App>_<id>
	path    string // encoded v2.1 file, when written
	bytes   int64
	records int
}

// corpusOpts selects what genCorpus produces besides record counts.
type corpusOpts struct {
	// dir receives each session as compressed LiLa v2.1, the encoding
	// `lilasim -format v2 -compress` writes; "" writes nothing.
	dir string
	// perSessionDirs puts each file in its own directory, the unit a
	// lagd traces job loads.
	perSessionDirs bool
	// each, when set, receives every session rebuilt through treebuild
	// and the session's span (concurrently; it must only write to
	// per-index state).
	each func(f *corpusFile, s *trace.Session, sp openSpan) error
}

// genCorpus simulates the default study's 56 sessions for the seed,
// exactly as the study and lilasim do. Each session's spans go under
// parent, or under a root of its own in operation traceID/<session>
// when parent is the zero span. Untraced it runs on one worker per
// CPU; traced it runs one session at a time so each span's allocation
// count is its own.
func (b *bench) genCorpus(traceID string, parent openSpan, o corpusOpts) ([]*corpusFile, error) {
	var files []*corpusFile
	for _, p := range apps.Catalog() {
		for id := 0; id < sessionsPerApp; id++ {
			name := fmt.Sprintf("%s_%d", p.Name, id)
			files = append(files, &corpusFile{index: len(files), app: p.Name, id: id, name: name})
		}
	}
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return nil, err
		}
	}
	workers := b.nproc
	if b.tr != nil {
		workers = 1
	}
	var next atomic.Int64
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(files) || b.ctx.Err() != nil {
					return
				}
				errs[i] = b.genSession(traceID, parent, files[i], o)
			}
		}()
	}
	wg.Wait()
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func (b *bench) genSession(traceID string, parent openSpan, f *corpusFile, o corpusOpts) error {
	p, err := apps.ByName(f.app)
	if err != nil {
		return err
	}
	root := parent.child("corpus")
	if parent.t == nil {
		root = b.tr.root(traceID+"/"+f.name, "corpus")
	}
	defer root.end()

	sp := root.child(spSim)
	recs, h, err := sim.Records(sim.Config{Profile: p, SessionID: f.id, Seed: b.seed})
	sp.end()
	if err != nil {
		return fmt.Errorf("sim %s: %w", f.name, err)
	}
	f.records = len(recs)
	b.tr.count(cSimRecords, float64(len(recs)))

	if o.dir != "" {
		dir := o.dir
		if o.perSessionDirs {
			dir = filepath.Join(o.dir, f.name)
		}
		f.path = filepath.Join(dir, f.name+".lila")
		sp := root.child(spEncode)
		f.bytes, err = writeV21(f.path, h, recs)
		sp.end()
		if err != nil {
			return fmt.Errorf("encode %s: %w", f.name, err)
		}
		b.tr.count(cEncodeBytes, float64(f.bytes))
	}
	if o.each == nil {
		return nil
	}
	sp = root.child(spTreebuild)
	s, _, err := treebuild.BuildRecords(h, recs)
	sp.end()
	if err != nil {
		return fmt.Errorf("treebuild %s: %w", f.name, err)
	}
	b.tr.count(cTreeRecords, float64(len(recs)))
	return o.each(f, s, root)
}

// writeV21 encodes recs as DEFLATE-compressed LiLa v2 and returns the
// file size.
func writeV21(path string, h lila.Header, recs []*lila.Record) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	lw, err := lila.NewWriterOptions(bw, h, lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate})
	if err == nil {
		for _, r := range recs {
			if err = lw.WriteRecord(r); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = lw.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func totalRecords(files []*corpusFile) int {
	n := 0
	for _, f := range files {
		n += f.records
	}
	return n
}

// releaseMemory returns the set-up's heap to the OS before a child is
// measured, so the benchmark's own footprint does not crowd it.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// suiteCollector builds the study's suites (catalog order, sessions by
// id) from the corpus sessions.
type suiteCollector struct {
	sessions []*trace.Session
}

func newSuiteCollector() *suiteCollector {
	return &suiteCollector{sessions: make([]*trace.Session, len(apps.Catalog())*sessionsPerApp)}
}

func (c *suiteCollector) add(f *corpusFile, s *trace.Session, _ openSpan) error {
	c.sessions[f.index] = s
	return nil
}

func (c *suiteCollector) suites() []*trace.Suite {
	var out []*trace.Suite
	for i, p := range apps.Catalog() {
		out = append(out, &trace.Suite{App: p.Name, Sessions: c.sessions[i*sessionsPerApp : (i+1)*sessionsPerApp]})
	}
	return out
}

// analyze runs the engine over each suite and assembles the study
// result the CLIs render: per-app results in suite order, then the
// mean row.
func (b *bench) analyze(parent openSpan, cfg report.StudyConfig, suites []*trace.Suite) *report.StudyResult {
	res := &report.StudyResult{Config: cfg, Health: &report.StudyHealth{}}
	for _, suite := range suites {
		sp := parent.child(spEngine)
		a := report.AnalyzeSuiteContext(b.ctx, suite, trace.DefaultPerceptibleThreshold)
		sp.end()
		for _, s := range suite.Sessions {
			b.tr.count(cEpisodes, float64(len(s.Episodes)))
		}
		res.Apps = append(res.Apps, a)
		res.Rows = append(res.Rows, a.Overview)
	}
	res.Rows = append(res.Rows, analysis.MeanOverview(res.Rows))
	return res
}

// renderOut renders what `lagreport -out` writes besides runmeta.json:
// the SVG figures, experiments.md and report.html. The traced runs also
// render the FormatAll text, the payload of a lagd traces job, which
// the CLI prints section by section.
func (b *bench) renderOut(parent openSpan, res *report.StudyResult) map[string][]byte {
	sp := parent.child(spRender)
	defer sp.end()
	out := map[string][]byte{}
	for name, svg := range report.Figures(res) {
		out[name] = []byte(svg)
	}
	out["experiments.md"] = []byte(report.FormatExperimentsMarkdown(res))
	out["report.html"] = []byte(report.FormatHTML(res))
	if b.tr != nil {
		all := report.FormatAll(res)
		b.tr.count(cRenderBytes, float64(len(all)))
	}
	for _, v := range out {
		b.tr.count(cRenderBytes, float64(len(v)))
	}
	return out
}

// readOut reads an -out directory's rendered files: everything but
// runmeta.json (timings, counters) and the .checkpoint cache.
func readOut(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() || e.Name() == "runmeta.json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

// sameFiles reports the first difference between two rendered sets.
func sameFiles(got, want map[string][]byte) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("missing %s", name)
		}
		if string(g) != string(w) {
			return fmt.Errorf("%s differs from the reference (%d vs %d bytes)", name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("unexpected file %s", name)
		}
	}
	return nil
}
