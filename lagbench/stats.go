package main

import (
	"bytes"
	"math"
	"regexp"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must rank above a reported tail
// percentile: a p90 over 20 samples rests on two values, so the tail
// reported is the highest one the sample count can support.
const minBeyond = 10

// tailLadder lists the tail percentiles tried, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples ranked above it (nearest-rank), and
// false when n is too small for any of them.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of quantile q among n samples.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(q, len(s))-1]
}

// median is the midpoint of xs, averaging the two middle values of an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencySummary is a timing distribution as the ledger reports it:
// the median and the highest percentile its sample count supports.
type latencySummary struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50_ms"`
	TailQ   float64 `json:"tail_q,omitempty"`
	TailMs  float64 `json:"tail_ms,omitempty"`
	Beyond  int     `json:"samples_beyond_tail,omitempty"`
	HasTail bool    `json:"-"`
}

func summarize(samples []time.Duration) latencySummary {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	s := latencySummary{N: len(ms), P50Ms: median(ms)}
	if q, ok := tailQuantile(len(ms)); ok {
		s.TailQ, s.TailMs, s.HasTail = q, quantile(ms, q), true
		s.Beyond = len(ms) - nearestRank(q, len(ms))
	}
	return s
}

// usage is what the ledger takes from a child's rusage.
type usage struct {
	CPUSeconds float64
	PeakRSSMB  float64
}

// usageOf converts a finished child's rusage: user+sys CPU seconds,
// and Maxrss (KiB on Linux) in MiB.
func usageOf(ru *syscall.Rusage) usage {
	if ru == nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		CPUSeconds: tv(ru.Utime) + tv(ru.Stime),
		PeakRSSMB:  float64(ru.Maxrss) / 1024,
	}
}

// timingLine is lagreport's one run-dependent stdout line.
var timingLine = regexp.MustCompile(`(?m)^analyzed \d+ traced episodes across \d+ applications in [^\n]*\n`)

// stripTiming removes lagreport's "analyzed … in Xs" line and nothing
// else, so two runs' stdout compare byte for byte.
func stripTiming(out []byte) []byte {
	return timingLine.ReplaceAll(out, nil)
}

// sameOutput reports whether two lagreport stdouts agree apart from
// the timing line.
func sameOutput(a, b []byte) bool {
	return bytes.Equal(stripTiming(a), stripTiming(b))
}
