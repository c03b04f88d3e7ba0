package main

import (
	"math"
	"syscall"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{112, 0.9, true},
		{100, 0.9, true},
		{99, 0.75, true},
		{40, 0.75, true},
		{39, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(q, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, q*100, c.n-nearestRank(q, c.n))
		}
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 112; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.N != 112 || s.P50Ms != 56.5 || s.TailQ != 0.9 || s.TailMs != 101 || s.Beyond != 11 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(ds[:5]); s.HasTail || s.P50Ms != 3 {
		t.Fatalf("five samples: %+v", s)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median(xs[:4]); m != 3 {
		t.Errorf("median even = %v", m)
	}
	if xs[0] != 5 {
		t.Error("median sorted its input")
	}
	if q := quantile(xs, 0.9); q != 5 {
		t.Errorf("p90 = %v", q)
	}
}

func TestUsageOfRusage(t *testing.T) {
	ru := &syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 1, Usec: 500000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 250000},
		Maxrss: 3 << 10, // KiB
	}
	u := usageOf(ru)
	if math.Abs(u.CPUSeconds-1.75) > 1e-9 {
		t.Errorf("cpu_s = %v, want 1.75 (user+sys)", u.CPUSeconds)
	}
	if u.PeakRSSMB != 3 {
		t.Errorf("peak_rss_mb = %v, want 3", u.PeakRSSMB)
	}
	if u := usageOf(nil); u != (usage{}) {
		t.Errorf("nil rusage = %+v", u)
	}
}

func TestOutputComparisonStripsOnlyTheTimingLine(t *testing.T) {
	a := []byte("== Table II ==\nrow 1\nanalyzed 253423 traced episodes across 14 applications in 6.227s\n(the paper: ~250'000 episodes analyzed in 15 minutes)\n")
	b := []byte("== Table II ==\nrow 1\nanalyzed 253423 traced episodes across 14 applications in 1m2.5s\n(the paper: ~250'000 episodes analyzed in 15 minutes)\n")
	if !sameOutput(a, b) {
		t.Error("outputs differing only in the timing line compare unequal")
	}
	if got := string(stripTiming(a)); got != "== Table II ==\nrow 1\n(the paper: ~250'000 episodes analyzed in 15 minutes)\n" {
		t.Errorf("stripTiming = %q", got)
	}
	for _, c := range [][]byte{
		[]byte("== Table II ==\nrow 2\nanalyzed 253423 traced episodes across 14 applications in 6.227s\n(the paper: ~250'000 episodes analyzed in 15 minutes)\n"),
		[]byte("== Table II ==\nrow 1\nanalyzed 253423 traced episodes across 14 applications in 6.227s\n(the paper: ~250'000 episodes analyzed in 16 minutes)\n"),
		[]byte("== Table II ==\nrow 1\n"),
	} {
		if sameOutput(a, c) {
			t.Errorf("outputs differing outside the timing line compare equal:\n%s", c)
		}
	}
}
