package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/ingest"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/report"
	"lagalyzer/internal/serve"
	"lagalyzer/internal/trace"
)

// ingestWindow is lagd's aggregation window in this workload, passed
// explicitly so the FoldSessions reference uses the same one.
const ingestWindow = 10 * trace.Second

// pollEvery is the job client's status poll interval: the default of
// the repository's own job poller, dist.Options.PollInterval.
const pollEvery = 15 * time.Millisecond

// lagdSession is one corpus session with the references its job
// results and uploads are checked against.
type lagdSession struct {
	*corpusFile
	dir      string         // one-session directory: a traces job's input
	body     []byte         // the .lila bytes an upload streams
	text     string         // report.FormatAll of the session alone
	episodes int            // traced episodes, checked in shard state
	tables   *ingest.Tables // ingest.FoldSessions of the session alone
}

// lagdCorpus is the lagd-mixed set-up product.
type lagdCorpus struct {
	sessions []*lagdSession
	records  int
	lagd     *lagdProc
}

// sessionRefs computes a session's references: the FormatAll text a
// traces job over it must return and its ingest window tables.
func (b *bench) sessionRefs(parent openSpan, ls *lagdSession, s *trace.Session) {
	suites := []*trace.Suite{{App: s.App, Sessions: []*trace.Session{s}}}
	sp := parent.child(spEngine)
	res := report.AnalyzeSuitesContext(b.ctx, suites, trace.DefaultPerceptibleThreshold, nil)
	sp.end()
	b.tr.count(cEpisodes, float64(len(s.Episodes)))
	sp = parent.child(spRender)
	ls.text = report.FormatAll(res)
	sp.end()
	b.tr.count(cRenderBytes, float64(len(ls.text)))
	ls.episodes = len(s.Episodes)
	sp = parent.child("ingest.fold")
	ls.tables = ingest.NewTables()
	ingest.FoldSessions(ls.tables, s.App, []*trace.Session{s}, ingestWindow, 0)
	sp.end()
}

func (b *bench) setupLagd(rep int) (*lagdCorpus, error) {
	if err := b.build("lagd"); err != nil {
		return nil, err
	}
	dir := filepath.Join(b.scratch, fmt.Sprintf("sessions%d", rep))
	sessions := make([]*lagdSession, len(apps.Catalog())*sessionsPerApp)
	files, err := b.genCorpus("setup", openSpan{}, corpusOpts{dir: dir, perSessionDirs: true,
		each: func(f *corpusFile, s *trace.Session, sp openSpan) error {
			ls := &lagdSession{corpusFile: f, dir: filepath.Dir(f.path)}
			b.sessionRefs(sp, ls, s)
			sessions[f.index] = ls
			return nil
		}})
	if err != nil {
		return nil, err
	}
	for _, ls := range sessions {
		if ls.body, err = os.ReadFile(ls.path); err != nil {
			return nil, err
		}
	}
	releaseMemory()
	c := &lagdCorpus{sessions: sessions, records: totalRecords(files)}
	c.lagd, err = startLagd(b.ctx, b.binary("lagd"), filepath.Join(b.scratch, fmt.Sprintf("state%d", rep)))
	return c, err
}

// lagdProc is a running lagd child.
type lagdProc struct {
	cmd    *exec.Cmd
	base   string
	logEnd chan struct{}
}

// startLagd starts lagd on a free loopback port with a fresh state
// directory and waits until /readyz answers 200.
func startLagd(ctx context.Context, bin, state string) (*lagdProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", state,
		"-ingest-window", time.Duration(ingestWindow).String())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &lagdProc{cmd: cmd, logEnd: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// The log is read to its end so lagd never blocks on a full
		// pipe; only the listen line is kept.
		defer close(p.logEnd)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "lagd: serving on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	fail := func(err error) (*lagdProc, error) {
		cmd.Process.Kill()
		<-p.logEnd
		cmd.Wait()
		return nil, err
	}
	select {
	case p.base = <-addr:
	case <-p.logEnd:
		return fail(errors.New("lagd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("lagd did not start listening within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("lagd not ready within 30s (last error %v)", err))
		}
	}
}

// stop sends SIGTERM, waits for the drain, and returns the exit error
// (nil for exit 0) with lagd's rusage.
func (p *lagdProc) stop() (usage, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return usage{}, err
	}
	timer := time.AfterFunc(60*time.Second, func() { p.cmd.Process.Kill() })
	defer timer.Stop()
	<-p.logEnd
	err := p.cmd.Wait()
	ru, _ := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if err != nil {
		err = fmt.Errorf("lagd exit after SIGTERM: %w", err)
	}
	return usageOf(ru), err
}

// client drives the job and ingest APIs of one lagd.
type client struct {
	ctx  context.Context
	http *http.Client
	base string
}

// job submits spec, polls until it finishes, and reads its deliverable:
// the text result of a traces job, the partial state of a shard job.
// result, when set, opens a span around reading the deliverable.
func (c *client) job(spec serve.JobSpec, result func() openSpan) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	data, err := c.do(http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, fmt.Errorf("submit reply: %w", err)
	}
	for {
		data, err := c.do(http.MethodGet, "/jobs/"+sub.ID, nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		var st serve.Status
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("status reply: %w", err)
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			return nil, fmt.Errorf("job %s (%s) ended %s: %s", sub.ID, spec.Kind, st.State, st.Error)
		}
		select {
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		case <-time.After(pollEvery):
		}
	}
	path := "/jobs/" + sub.ID + "/result"
	if spec.Kind == "shard" {
		path = "/jobs/" + sub.ID + "/state"
	}
	if result != nil {
		sp := result()
		defer sp.end()
	}
	return c.do(http.MethodGet, path, nil, http.StatusOK)
}

// upload streams body as a chunked POST /ingest/{app}/{session} and
// checks the session summary.
func (c *client) upload(app, session string, body []byte, records int) error {
	// A reader of unknown length makes the transport send chunks.
	data, err := c.do(http.MethodPost, "/ingest/"+app+"/"+session, io.MultiReader(bytes.NewReader(body)), http.StatusOK)
	if err != nil {
		return err
	}
	var sum struct {
		Records int64  `json:"records"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return fmt.Errorf("ingest summary: %w", err)
	}
	if sum.Error != "" || sum.Records != int64(records) {
		return fmt.Errorf("ingest %s/%s: %d of %d records, error %q", app, session, sum.Records, records, sum.Error)
	}
	return nil
}

func (c *client) do(method, path string, body io.Reader, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, tail(data))
	}
	return data, nil
}

// jobSpec is session i's job in pass p: traces and shard jobs
// alternate, shifted each pass so every session gets both kinds.
func jobSpec(ls *lagdSession, i, pass int) serve.JobSpec {
	if (i+pass)%2 == 0 {
		return serve.JobSpec{Kind: "traces", Dir: ls.dir}
	}
	return serve.JobSpec{Kind: "shard", Files: []string{ls.path}}
}

// checkJob checks a job deliverable against the session's references.
func checkJob(ls *lagdSession, spec serve.JobSpec, data []byte) error {
	if spec.Kind == "traces" {
		if string(data) != ls.text {
			return fmt.Errorf("traces job result for %s differs from report.FormatAll", ls.name)
		}
		return nil
	}
	st, err := serve.DecodeShardState(data)
	if err != nil {
		return fmt.Errorf("shard state for %s: %w", ls.name, err)
	}
	return checkShard(ls, st)
}

// checkShard checks that a decoded shard state holds exactly the session.
func checkShard(ls *lagdSession, st *serve.ShardState) error {
	if len(st.Suites) != 1 || st.Suites[0].App != ls.app || len(st.Suites[0].Sessions) != 1 ||
		len(st.Suites[0].Sessions[0].Episodes) != ls.episodes {
		return fmt.Errorf("shard state for %s does not hold the session", ls.name)
	}
	return nil
}

// passResult is one pass's latencies and per-operation outcomes.
type passResult struct {
	wall         time.Duration
	jobs, upload []time.Duration
	errs         []error
}

// pass runs the fixed script once: a job client and an ingest client,
// each a closed loop over every session, sharing the machine.
func (c *client) pass(sessions []*lagdSession, p int) passResult {
	var r passResult
	var jobErrs, upErrs []error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, ls := range sessions {
			spec := jobSpec(ls, i, p)
			t0 := time.Now()
			data, err := c.job(spec, nil)
			r.jobs = append(r.jobs, time.Since(t0))
			if err == nil {
				err = checkJob(ls, spec, data)
			}
			jobErrs = append(jobErrs, err)
		}
	}()
	go func() {
		defer wg.Done()
		for i, ls := range sessions {
			t0 := time.Now()
			err := c.upload(ls.app, fmt.Sprintf("p%d-%d", p, i), ls.body, ls.records)
			r.upload = append(r.upload, time.Since(t0))
			upErrs = append(upErrs, err)
		}
	}()
	wg.Wait()
	r.wall = time.Since(start)
	r.errs = append(jobErrs, upErrs...)
	return r
}

// statsView is the part of GET /ingest/stats the check compares.
type statsView struct {
	Windows []struct {
		ingest.WindowKey
		*ingest.Aggregate
		PatternCount int `json:"pattern_count"`
	} `json:"windows"`
	Apps map[string]*ingest.AppTally `json:"apps"`
}

// checkStats compares the committed ingest windows with FoldSessions
// over every uploaded session.
func checkStats(data []byte, want *ingest.Tables) error {
	var got statsView
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("ingest stats: %w", err)
	}
	if len(got.Windows) != len(want.Windows) {
		return fmt.Errorf("ingest stats: %d windows, FoldSessions has %d", len(got.Windows), len(want.Windows))
	}
	for _, w := range got.Windows {
		ref := want.Windows[w.WindowKey]
		if ref == nil || w.Aggregate == nil {
			return fmt.Errorf("ingest stats: window %+v not in FoldSessions", w.WindowKey)
		}
		tallies := *ref
		tallies.Patterns = nil
		if !reflect.DeepEqual(*w.Aggregate, tallies) || w.PatternCount != len(ref.Patterns) {
			return fmt.Errorf("ingest stats: window %+v differs from FoldSessions", w.WindowKey)
		}
	}
	if !reflect.DeepEqual(got.Apps, want.Apps) {
		return errors.New("ingest stats: app tallies differ from FoldSessions")
	}
	return nil
}

// expectedTables folds every session's reference tables passes times.
func expectedTables(sessions []*lagdSession, passes int) *ingest.Tables {
	t := ingest.NewTables()
	for p := 0; p < passes; p++ {
		for _, ls := range sessions {
			t.Merge(ls.tables)
		}
	}
	return t
}

// lagdMixed: one lagd serving a job client and an ingest client at
// once over the traces-v21 corpus cut into one-session directories.
func (b *bench) lagdMixed() error {
	c, err := setupTimed(b, b.setupLagd, func(c *lagdCorpus) { c.lagd.stop() })
	if err != nil {
		return err
	}
	cl := &client{ctx: b.ctx, http: &http.Client{Timeout: 2 * time.Minute}, base: c.lagd.base}
	var walls []float64
	var jobs, uploads []time.Duration
	passes := 0
	start := time.Now()
	// Two passes at least: 112 samples per client put ten beyond p90.
	for passes < 2 || time.Since(start) < b.seconds {
		if b.ctx.Err() != nil {
			break
		}
		r := cl.pass(c.sessions, passes)
		passes++
		walls = append(walls, r.wall.Seconds())
		jobs, uploads = append(jobs, r.jobs...), append(uploads, r.upload...)
		for _, err := range r.errs {
			b.op(err)
		}
	}
	data, err := cl.do(http.MethodGet, "/ingest/stats", nil, http.StatusOK)
	if err == nil {
		err = checkStats(data, expectedTables(c.sessions, passes))
	}
	b.op(err)
	use, err := c.lagd.stop()
	b.op(err)
	if err := b.ctx.Err(); err != nil {
		return err
	}

	wall := median(walls)
	b.metric("wall_s", "s", wall)
	// Each pass processes every session twice: once as a job, once as
	// an upload.
	b.metric("records_per_s", "1/s", float64(2*c.records)/wall)
	b.metric("cpu_s", "s", use.CPUSeconds/float64(passes))
	b.metric("peak_rss_mb", "MB", use.PeakRSSMB)
	b.record["passes"] = passes
	b.record["records"] = c.records
	b.record["wall_s_samples"] = walls
	b.record["job_ms"] = summarize(jobs)
	b.record["upload_ms"] = summarize(uploads)
	b.record["failed_frac"] = float64(b.failed) / float64(max(b.attempted, 1))
	return nil
}

// tracedLagdMixed runs one untraced pass against a lagd child, then
// replays every session in-process — decode, treebuild, engine,
// render; a traces job, a shard job and an upload through an
// in-process serve.Server with ingest journaling; the shard state
// encode/decode; and the ingest consumer alone — and compares the
// in-process results with the child's.
func (b *bench) tracedLagdMixed() error {
	var c *lagdCorpus
	err := b.asSetup(func() (err error) {
		c, err = b.setupLagd(0)
		return err
	})
	if err != nil {
		return err
	}
	cl := &client{ctx: b.ctx, http: &http.Client{Timeout: 2 * time.Minute}, base: c.lagd.base}
	r := cl.pass(c.sessions, 0)
	for _, err := range r.errs {
		b.op(err)
	}
	_, err = c.lagd.stop()
	b.op(err)

	state := filepath.Join(b.scratch, "traced-state")
	ing, err := ingest.New(ingest.Config{WindowDur: ingestWindow, JournalDir: filepath.Join(state, "ingest")})
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{StateDir: state, Ingest: ing})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	in := &client{ctx: b.ctx, http: hs.Client(), base: hs.URL}
	shed0 := counter("ingest_shed_total")
	for i, ls := range c.sessions {
		if err := b.tracedSession(in, ls, i); err != nil {
			return err
		}
	}
	data, err := in.do(http.MethodGet, "/ingest/stats", nil, http.StatusOK)
	if err == nil {
		err = checkStats(data, expectedTables(c.sessions, 1))
	}
	b.op(err)
	b.tr.count(cShed, float64(counter("ingest_shed_total")-shed0))
	size, err := dirSize(filepath.Join(state, "ingest"))
	if err != nil {
		return err
	}
	b.tr.count(cJournalBytes, float64(size))
	return nil
}

// tracedSession is one session's traced operation.
func (b *bench) tracedSession(in *client, ls *lagdSession, i int) error {
	root := b.tr.root("session/"+ls.name, "session")
	defer root.end()
	var consumed error
	s, err := b.decodeBuild(root, ls.path, func(h lila.Header, recs []*lila.Record) error {
		sp := root.child(spConsumer)
		consumed = consume(ls.app, h, recs)
		sp.end()
		return nil
	})
	if err != nil {
		return err
	}
	b.op(consumed)
	ref := &lagdSession{corpusFile: ls.corpusFile}
	b.sessionRefs(root, ref, s)
	if ref.text != ls.text {
		b.op(fmt.Errorf("traced FormatAll for %s differs from the untraced reference", ls.name))
	}

	for _, spec := range []serve.JobSpec{{Kind: "traces", Dir: ls.dir}, {Kind: "shard", Files: []string{ls.path}}} {
		sp := root.child(spJob)
		data, err := in.job(spec, func() openSpan { return sp.child(spResult) })
		sp.end()
		if err != nil || spec.Kind == "traces" {
			if err == nil {
				err = checkJob(ls, spec, data)
			}
			b.op(err)
			continue
		}
		b.tr.count(cStateBytes, float64(len(data)))
		b.tr.count(cLilaBytes, float64(ls.bytes))
		sp = root.child(spStateDec)
		st, err := serve.DecodeShardState(data)
		sp.end()
		if err == nil {
			err = checkShard(ls, st)
		}
		b.op(err)
		sp = root.child(spStateEnc)
		_, err = serve.EncodeShardState(&serve.ShardState{
			Suites: []*trace.Suite{{App: s.App, Sessions: []*trace.Session{s}}},
			Health: &report.StudyHealth{},
		})
		sp.end()
		b.op(err)
	}

	sp := root.child(spUpload)
	err = in.upload(ls.app, fmt.Sprintf("traced-%d", i), ls.body, ls.records)
	sp.end()
	b.tr.count(cIngestRecords, float64(ls.records))
	b.op(err)
	return nil
}

// consume feeds a session's records to an ingest consumer alone, the
// per-record work of an upload without HTTP or journaling.
func consume(app string, h lila.Header, recs []*lila.Record) error {
	c := ingest.NewConsumer(app, h, ingest.ConsumerConfig{WindowDur: ingestWindow})
	for _, r := range recs {
		if err := c.Add(r); err != nil {
			return err
		}
	}
	c.Finish()
	return nil
}
