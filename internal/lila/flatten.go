package lila

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"lagalyzer/internal/trace"
)

// Flatten converts an in-memory session back into the record stream a
// profiler would have emitted: thread declarations, then calls,
// returns, GC brackets, and samples in time order, terminated by the
// end record. It is the inverse of treebuild and the basis for
// serializing simulated sessions.
//
// GC intervals embedded in episode trees are per-thread *copies* of
// the global collections (Section II-A of the paper); Flatten skips
// them and emits the global brackets from Session.GCs instead, so the
// round trip through treebuild reconstructs the copies.
func Flatten(s *trace.Session) []*Record {
	recs := flatten(s)
	out := make([]*Record, len(recs))
	for i := range recs {
		out[i] = &recs[i]
	}
	return out
}

// flatten is Flatten into one slab of record values.
func flatten(s *trace.Session) []Record {
	n := len(s.Threads) + 2*len(s.GCs) + 1
	for _, e := range s.Episodes {
		e.Root.Walk(func(iv *trace.Interval, _ int) bool {
			if iv.Kind == trace.KindGC {
				return false
			}
			n += 2
			return true
		})
	}
	for _, tick := range s.Ticks {
		n += len(tick.Threads)
	}

	// recs holds the records in discovery order: thread declarations
	// first, then the events to be ordered.
	recs := make([]Record, 0, n)
	for _, t := range s.Threads {
		recs = append(recs, Record{Type: RecThread, Thread: t.ID, Name: t.Name, Daemon: t.Daemon})
	}
	threads := len(recs)

	// Ordered stream events: collect, then sort with tie-breaking
	// rules that preserve proper nesting at equal time stamps:
	// returns close before anything opens (deepest first), samples in
	// between, calls open after (shallowest first), and GC brackets
	// sit innermost (end first, start last). Discovery order breaks
	// the remaining ties, so the order is total and the sort need not
	// be stable. Events are pointer-free; idx locates the record.
	type event struct {
		time  trace.Time
		prio  int32
		depth int32
		idx   int32
	}
	events := make([]event, 0, n-threads)
	add := func(rec Record, prio, depth int) {
		events = append(events, event{rec.Time, int32(prio), int32(depth), int32(len(recs))})
		recs = append(recs, rec)
	}

	const (
		prioGCEnd = iota
		prioReturn
		prioSample
		prioCall
		prioGCStart
	)

	for _, e := range s.Episodes {
		e.Root.Walk(func(iv *trace.Interval, depth int) bool {
			if iv.Kind == trace.KindGC {
				return false // global brackets come from s.GCs
			}
			add(Record{Type: RecCall, Time: iv.Start, Thread: e.Thread, Kind: iv.Kind, Class: iv.Class, Method: iv.Method}, prioCall, depth)
			add(Record{Type: RecReturn, Time: iv.End, Thread: e.Thread}, prioReturn, depth)
			return true
		})
	}
	for _, gc := range s.GCs {
		add(Record{Type: RecGCStart, Time: gc.Start, Major: gc.Major}, prioGCStart, 0)
		add(Record{Type: RecGCEnd, Time: gc.End}, prioGCEnd, 0)
	}
	for _, tick := range s.Ticks {
		for _, th := range tick.Threads {
			add(Record{Type: RecSample, Time: tick.Time, Thread: th.Thread, State: th.State, Stack: th.Stack}, prioSample, 0)
		}
	}

	slices.SortFunc(events, func(a, b event) int {
		if a.time != b.time {
			return cmp.Compare(a.time, b.time)
		}
		if a.prio != b.prio {
			return cmp.Compare(a.prio, b.prio)
		}
		switch {
		case a.depth == b.depth:
		case a.prio == prioReturn:
			return cmp.Compare(b.depth, a.depth) // deeper intervals close first
		case a.prio == prioCall:
			return cmp.Compare(a.depth, b.depth) // shallower intervals open first
		}
		return cmp.Compare(a.idx, b.idx)
	})

	out := make([]Record, 0, len(recs)+1)
	out = append(out, recs[:threads]...)
	for _, ev := range events {
		out = append(out, recs[ev.idx])
	}
	return append(out, Record{Type: RecEnd, Time: s.End, Count: s.ShortCount})
}

// HeaderOf derives the trace header for a session.
func HeaderOf(s *trace.Session) Header {
	return Header{
		App:             s.App,
		SessionID:       s.ID,
		GUIThread:       s.GUIThread,
		FilterThreshold: s.FilterThreshold,
		SamplePeriod:    s.SamplePeriod,
		Start:           s.Start,
	}
}

// Format selects a trace encoding.
type Format int

const (
	// FormatText is the line-oriented, human-readable encoding.
	FormatText Format = iota
	// FormatBinary is the compact v1 varint stream encoding.
	FormatBinary
	// FormatV2 is the block-indexed binary encoding: string and stack
	// tables up front, checksummed blocks with independent time bases,
	// and a footer index for mmap-style selective decode.
	FormatV2
)

// String returns "text", "binary", or "v2".
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat recognises "text", "binary", and "v2".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "binary":
		return FormatBinary, nil
	case "v2":
		return FormatV2, nil
	}
	return 0, fmt.Errorf("lila: unknown format %q (want text, binary, or v2)", s)
}

// NewWriter returns a Writer for the chosen format, with the header
// already emitted.
func NewWriter(w io.Writer, f Format, h Header) (Writer, error) {
	return NewWriterOptions(w, h, WriteOptions{Format: f})
}

// WriteOptions select a trace encoding together with its tuning knobs.
type WriteOptions struct {
	// Format selects the encoding; the zero value is FormatText.
	Format Format
	// Compression selects the per-block codec. Only FormatV2 is
	// block-structured, so any other format rejects a non-zero value.
	Compression Compression
}

// NewWriterOptions is NewWriter with explicit encoding options.
func NewWriterOptions(w io.Writer, h Header, o WriteOptions) (Writer, error) {
	if o.Compression != CompressionNone && o.Format != FormatV2 {
		return nil, fmt.Errorf("lila: %s format does not support compression (only v2 is block-structured)", o.Format)
	}
	switch o.Format {
	case FormatText:
		return NewTextWriter(w, h)
	case FormatBinary:
		return NewBinaryWriter(w, h)
	case FormatV2:
		return NewV2WriterOptions(w, h, V2WriterOptions{Compression: o.Compression})
	default:
		return nil, fmt.Errorf("lila: unknown format %d", o.Format)
	}
}

// WriteSession flattens s and writes it to w in the chosen format.
func WriteSession(w io.Writer, f Format, s *trace.Session) error {
	return WriteSessionOptions(w, WriteOptions{Format: f}, s)
}

// WriteSessionOptions is WriteSession with explicit encoding options.
func WriteSessionOptions(w io.Writer, o WriteOptions, s *trace.Session) error {
	lw, err := NewWriterOptions(w, HeaderOf(s), o)
	if err != nil {
		return err
	}
	recs := flatten(s)
	if vw, ok := lw.(*V2Writer); ok {
		// The v2 writer buffers the whole stream until Close anyway:
		// give it the flattened slab instead of a record-by-record copy.
		for i := range recs {
			if err := recs[i].Validate(); err != nil {
				return err
			}
		}
		vw.recs = recs
		return vw.Close()
	}
	for i := range recs {
		if err := lw.WriteRecord(&recs[i]); err != nil {
			return err
		}
	}
	return lw.Close()
}

// NewReader sniffs the encoding of r (by its first bytes) and returns
// the matching Reader. The stream must support nothing beyond
// io.Reader; sniffing is done with a bounded-lookahead wrapper, and a
// recognised LiLa magic with a version this package does not speak
// reports ErrUnsupportedVersion rather than a garbled decode.
func NewReader(r io.Reader) (Reader, error) {
	return NewReaderOptions(r, ReaderOptions{})
}

// sniffReader is an io.Reader with a few bytes of lookahead: enough to
// read the 5-byte binary magic (4 magic bytes + version) and dispatch
// on it, replaying the peeked bytes to whichever reader wins.
type sniffReader struct {
	r   io.Reader
	buf [5]byte
	n   int // peeked bytes in buf
	pos int // replayed so far
}

// peek returns the first byte of the stream without consuming it.
func (s *sniffReader) peek() (byte, error) {
	b, err := s.peekN(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// peekN returns the first n (≤ len(buf)) bytes of the stream without
// consuming them. A short stream yields io.ErrUnexpectedEOF.
func (s *sniffReader) peekN(n int) ([]byte, error) {
	if s.pos > 0 {
		return nil, fmt.Errorf("lila: peek after read")
	}
	for s.n < n {
		m, err := s.r.Read(s.buf[s.n:n])
		s.n += m
		if err != nil {
			if err == io.EOF && s.n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return s.buf[:n], nil
}

func (s *sniffReader) Read(p []byte) (int, error) {
	if s.pos < s.n {
		n := copy(p, s.buf[s.pos:s.n])
		s.pos += n
		return n, nil
	}
	return s.r.Read(p)
}
