package serve

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// frameShardState wraps payload in a valid header of the given magic:
// the magic, then the payload's SHA-256.
func frameShardState(magic string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := append([]byte(magic), sum[:]...)
	return append(out, payload...)
}

// oneSessionState is a real shard state holding one short session.
func oneSessionState(t testing.TB) *ShardState {
	t.Helper()
	p, err := apps.ByName("CrosswordSage")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Run(sim.Config{Profile: p, Seed: 7, SessionSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	return &ShardState{
		Suites: []*trace.Suite{{App: p.Name, Sessions: []*trace.Session{s}}},
		Health: &report.StudyHealth{},
	}
}

// TestShardStateRoundTripDeepEqual: suites and a populated health
// ledger survive the LAGSHRD2 framing deeply equal.
func TestShardStateRoundTripDeepEqual(t *testing.T) {
	var suites []*trace.Suite
	for _, name := range []string{"CrosswordSage", "JEdit"} {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		su := &trace.Suite{App: name}
		for i := 0; i < 2; i++ {
			s, err := sim.Run(sim.Config{Profile: p, SessionID: i, Seed: 3, SessionSeconds: 10})
			if err != nil {
				t.Fatal(err)
			}
			su.Sessions = append(su.Sessions, s)
		}
		suites = append(suites, su)
	}
	st := &ShardState{
		Suites: suites,
		Health: &report.StudyHealth{
			Files: []report.FileHealth{{
				Path:        "traces/a0.lila",
				App:         "CrosswordSage",
				Salvage:     &lila.SalvageReport{RecordsKept: 10, RecordsDropped: 2, BytesSkipped: 40, FirstError: "bad record"},
				Diagnostics: &treebuild.Diagnostics{SkippedRecords: 1, SynthesizedEnd: true},
			}},
			Apps:            []report.AppHealth{{App: "JEdit", Error: "boom", Reason: report.LossShard}},
			SessionsSkipped: 1,
		},
	}
	data, err := EncodeShardState(st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShardState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Error("shard state differs after the round trip")
	}
}

// TestShardStateLegacyFrameRejected: a correctly checksummed payload
// in the gob-era LAGSHRD1 framing is unreadable by this build and
// decodes to ErrBadShardState, so a mixed-version cluster retries or
// falls back instead of merging.
func TestShardStateLegacyFrameRejected(t *testing.T) {
	data, err := EncodeShardState(oneSessionState(t))
	if err != nil {
		t.Fatal(err)
	}
	header := len(shardStateMagic) + sha256.Size
	legacy := frameShardState("LAGSHRD1", data[header:])
	if _, err := DecodeShardState(legacy); !errors.Is(err, ErrBadShardState) {
		t.Errorf("LAGSHRD1 payload: err = %v, want ErrBadShardState", err)
	}
}

// FuzzDecodeShardState throws arbitrary payloads at the shard-state
// decoder behind a valid magic and checksum, so the fuzzer exercises
// the health and suite sections (and through them the LiLa reader and
// session rebuilder) rather than the checksum. The contract: no panic,
// and every failure is ErrBadShardState.
func FuzzDecodeShardState(f *testing.F) {
	header := len(shardStateMagic) + sha256.Size
	for _, st := range []*ShardState{oneSessionState(f), {Health: &report.StudyHealth{}}} {
		data, err := EncodeShardState(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[header:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := DecodeShardState(frameShardState(shardStateMagic, payload))
		if err != nil {
			if !errors.Is(err, ErrBadShardState) {
				t.Fatalf("err = %v, want ErrBadShardState", err)
			}
			return
		}
		for _, su := range st.Suites {
			if su == nil {
				t.Fatal("decoded a nil suite")
			}
		}
	})
}
