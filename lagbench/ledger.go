package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the programs under test carry no spans of their
// own for most layers yet). Spans of one operation share a Trace id;
// Parent is the enclosing span's ID, 0 for an operation's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Alloc is the heap bytes allocated process-wide while the span was
	// open. Traced runs call layers one at a time, so it is the layer's.
	Alloc uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counts   map[string]float64
	overhead time.Duration
	sample   []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// openSpan is a started span; the zero value (untraced) does nothing.
type openSpan struct {
	t      *tracer
	idx    int
	alloc0 uint64
}

// allocBytes reads the cumulative heap allocation counter; t.mu held.
func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// root opens the root span of operation traceID.
func (t *tracer) root(traceID, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return t.open(traceID, 0, name)
}

// child opens a span under o, in o's operation.
func (o openSpan) child(name string) openSpan {
	if o.t == nil {
		return openSpan{}
	}
	o.t.mu.Lock()
	parent := o.t.spans[o.idx]
	o.t.mu.Unlock()
	return o.t.open(parent.Trace, parent.ID, name)
}

func (t *tracer) open(traceID string, parent int, name string) openSpan {
	begin := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: traceID, Name: name})
	o := openSpan{t: t, idx: len(t.spans) - 1, alloc0: t.allocBytes()}
	now := time.Now()
	t.spans[o.idx].Start = now.Sub(t.t0)
	t.overhead += now.Sub(begin)
	return o
}

// end closes the span.
func (o openSpan) end() {
	t := o.t
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[o.idx]
	s.End = now.Sub(t.t0)
	s.Alloc = t.allocBytes() - o.alloc0
	t.overhead += time.Since(now)
}

// count adds v to the named work counter (records, bytes, ...).
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children; overlapping children are counted
// once, and a child running past its parent counts only inside it.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		for i := range cs {
			cs[i].lo = max(cs[i].lo, s.Start)
			cs[i].hi = min(cs[i].hi, s.End)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered time.Duration
		var cur iv
		open := false
		for _, c := range cs {
			if c.hi <= c.lo {
				continue
			}
			switch {
			case !open:
				cur, open = c, true
			case c.lo <= cur.hi:
				cur.hi = max(cur.hi, c.hi)
			default:
				covered += cur.hi - cur.lo
				cur = c
			}
		}
		if open {
			covered += cur.hi - cur.lo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTotal sums, per span name, self time, wall time, allocation
// and calls.
type layerTotal struct {
	Busy  time.Duration
	Total time.Duration
	Alloc uint64
	Calls int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Busy += self[s.ID]
		lt.Total += s.dur()
		lt.Alloc += s.Alloc
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// unattributedFrac is the share of operation (root span) time that no
// child layer span covers.
func unattributedFrac(spans []span) float64 {
	self := selfTimes(spans)
	var total, gap time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.dur()
			gap += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gap) / float64(total)
}

// writeSpans stores the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Per-layer metric names, in report order. Layer names are the
// repository's module names.
var perLayer = []struct{ name, unit string }{
	{"sim.busy_s", "s"}, {"sim.records", "count"}, {"sim.alloc_mb", "MB"},
	{"lila.encode.busy_s", "s"}, {"lila.encode.bytes", "bytes"},
	{"lila.decode.busy_s", "s"}, {"lila.decode.records_per_s", "1/s"}, {"lila.decode.mb_per_s", "MB/s"},
	{"lila.decode.alloc_mb", "MB"}, {"lila.decode.blocks_inflated", "count"}, {"lila.decode.blocks_skipped", "count"},
	{"treebuild.busy_s", "s"}, {"treebuild.records_per_s", "1/s"}, {"treebuild.alloc_mb", "MB"},
	{"engine.busy_s", "s"}, {"engine.episodes_per_s", "1/s"}, {"engine.alloc_mb", "MB"},
	{"report.render.busy_s", "s"}, {"report.render.bytes", "bytes"}, {"report.render.alloc_mb", "MB"},
	{"checkpoint.save_s", "s"}, {"checkpoint.load_s", "s"}, {"checkpoint.bytes", "bytes"},
	{"checkpoint.load_alloc_mb", "MB"}, {"checkpoint.hits", "count"},
	{"serve.job_ms", "ms"}, {"serve.result_ms", "ms"},
	{"ingest.upload_busy_s", "s"}, {"ingest.records_per_s", "1/s"}, {"ingest.consumer_s", "s"},
	{"ingest.journal_bytes", "bytes"}, {"ingest.shed", "count"},
	{"dist.state_bytes", "bytes"}, {"dist.state_encode_s", "s"}, {"dist.state_decode_s", "s"},
	{"dist.state_ratio", "ratio"},
	{"traced.overhead_s", "s"}, {"traced.unattributed_frac", "fraction"},
}

// Span names: one per layer boundary the traced runs cross.
const (
	spSim       = "sim"
	spEncode    = "lila.encode"
	spDecode    = "lila.decode"
	spTreebuild = "treebuild"
	spEngine    = "engine"
	spRender    = "report.render"
	spSave      = "checkpoint.save"
	spLoad      = "checkpoint.load"
	spJob       = "serve.job"
	spResult    = "serve.result"
	spUpload    = "ingest.upload"
	spConsumer  = "ingest.consumer"
	spStateEnc  = "dist.state_encode"
	spStateDec  = "dist.state_decode"
)

// Work counters the traced runs add at the same boundaries.
const (
	cSimRecords      = "sim.records"
	cEncodeBytes     = "lila.encode.bytes"
	cDecodeRecords   = "lila.decode.records"
	cDecodeBytes     = "lila.decode.bytes"
	cBlocksInflated  = "lila.decode.blocks_inflated"
	cBlocksSkipped   = "lila.decode.blocks_skipped"
	cTreeRecords     = "treebuild.records"
	cEpisodes        = "engine.episodes"
	cRenderBytes     = "report.render.bytes"
	cCheckpointBytes = "checkpoint.bytes"
	cCheckpointHits  = "checkpoint.hits"
	cIngestRecords   = "ingest.records"
	cJournalBytes    = "ingest.journal_bytes"
	cShed            = "ingest.shed"
	cStateBytes      = "dist.state_bytes"
	cLilaBytes       = "dist.lila_bytes"
)

// ledger turns the recorded spans and counters into the per-layer
// metrics. A layer that did no work on the workload reports 0.
func (t *tracer) ledger() map[string]float64 {
	lt := layerTotals(t.spans)
	busy := func(name string) float64 { return lt[name].Busy.Seconds() }
	mb := func(name string) float64 { return float64(lt[name].Alloc) / (1 << 20) }
	rate := func(n float64, secs float64) float64 {
		if secs <= 0 {
			return 0
		}
		return n / secs
	}
	perCall := func(name string) float64 {
		if lt[name].Calls == 0 {
			return 0
		}
		return float64(lt[name].Total) / float64(time.Millisecond) / float64(lt[name].Calls)
	}
	c := t.counts
	m := map[string]float64{
		"sim.busy_s": busy(spSim), "sim.records": c[cSimRecords], "sim.alloc_mb": mb(spSim),
		"lila.encode.busy_s": busy(spEncode), "lila.encode.bytes": c[cEncodeBytes],
		"lila.decode.busy_s":          busy(spDecode),
		"lila.decode.records_per_s":   rate(c[cDecodeRecords], busy(spDecode)),
		"lila.decode.mb_per_s":        rate(c[cDecodeBytes]/(1<<20), busy(spDecode)),
		"lila.decode.alloc_mb":        mb(spDecode),
		"lila.decode.blocks_inflated": c[cBlocksInflated],
		"lila.decode.blocks_skipped":  c[cBlocksSkipped],
		"treebuild.busy_s":            busy(spTreebuild),
		"treebuild.records_per_s":     rate(c[cTreeRecords], busy(spTreebuild)),
		"treebuild.alloc_mb":          mb(spTreebuild),
		"engine.busy_s":               busy(spEngine),
		"engine.episodes_per_s":       rate(c[cEpisodes], busy(spEngine)),
		"engine.alloc_mb":             mb(spEngine),
		"report.render.busy_s":        busy(spRender),
		"report.render.bytes":         c[cRenderBytes],
		"report.render.alloc_mb":      mb(spRender),
		"checkpoint.save_s":           busy(spSave),
		"checkpoint.load_s":           busy(spLoad),
		"checkpoint.bytes":            c[cCheckpointBytes],
		"checkpoint.load_alloc_mb":    mb(spLoad),
		"checkpoint.hits":             c[cCheckpointHits],
		"serve.job_ms":                perCall(spJob),
		"serve.result_ms":             perCall(spResult),
		"ingest.upload_busy_s":        busy(spUpload),
		"ingest.records_per_s":        rate(c[cIngestRecords], busy(spUpload)),
		"ingest.consumer_s":           busy(spConsumer),
		"ingest.journal_bytes":        c[cJournalBytes],
		"ingest.shed":                 c[cShed],
		"dist.state_bytes":            c[cStateBytes],
		"dist.state_encode_s":         busy(spStateEnc),
		"dist.state_decode_s":         busy(spStateDec),
		"dist.state_ratio":            rate(c[cStateBytes], c[cLilaBytes]),
		"traced.overhead_s":           t.overhead.Seconds(),
		"traced.unattributed_frac":    unattributedFrac(t.spans),
	}
	return m
}
