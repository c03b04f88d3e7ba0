package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10,50]: 40ms, counted once.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},
		// A grandchild only reduces its own parent.
		{ID: 4, Parent: 3, Name: "c", Start: ms(25), End: ms(35)},
		// A child running past its parent counts only inside it: [90,100].
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(130)},
		// A disjoint child: [60,70].
		{ID: 6, Parent: 1, Name: "e", Start: ms(60), End: ms(70)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(20), 4: ms(10), 5: ms(40), 6: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	if f := unattributedFrac(spans); math.Abs(f-0.4) > 1e-9 {
		t.Errorf("unattributed = %v, want 0.4", f)
	}
}

func TestLedgerTotalsAndRates(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "session", Start: 0, End: ms(1000)},
		{ID: 2, Parent: 1, Name: spDecode, Start: ms(0), End: ms(500), Alloc: 3 << 20},
		{ID: 3, Parent: 1, Name: spJob, Start: ms(500), End: ms(900)},
		{ID: 4, Parent: 3, Name: spResult, Start: ms(800), End: ms(900)},
		{ID: 5, Parent: 1, Name: spJob, Start: ms(900), End: ms(1000)},
	}
	tr.count(cDecodeRecords, 1000)
	tr.count(cDecodeBytes, 2<<20)
	m := tr.ledger()
	for name, want := range map[string]float64{
		"lila.decode.busy_s":        0.5,
		"lila.decode.records_per_s": 2000,
		"lila.decode.mb_per_s":      4,
		"lila.decode.alloc_mb":      3,
		"serve.job_ms":              250, // wall per call, result read included
		"serve.result_ms":           100,
		"traced.unattributed_frac":  0,
		"sim.busy_s":                0,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			t.Errorf("ledger lacks %s", l.name)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("ledger has %d metrics, perLayer lists %d", len(m), len(perLayer))
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	sp := tr.root("op", "x")
	sp.child("y").end()
	sp.end()
	tr.count("n", 1)
}
