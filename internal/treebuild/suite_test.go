package treebuild_test

import (
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// simSuite simulates n sessions of the named app at the default seed.
func simSuite(t *testing.T, p *sim.Profile, n int, seconds float64) *trace.Suite {
	t.Helper()
	su := &trace.Suite{App: p.Name}
	for i := 0; i < n; i++ {
		s, err := sim.Run(sim.Config{Profile: p, SessionID: i, SessionSeconds: seconds})
		if err != nil {
			t.Fatal(err)
		}
		su.Sessions = append(su.Sessions, s)
	}
	return su
}

// TestSuiteCodecRoundTripDefaultStudy: every session of the default
// study (full-length sessions, all 14 apps, four sessions each) comes
// back from the suite codec deeply equal to the simulated original.
func TestSuiteCodecRoundTripDefaultStudy(t *testing.T) {
	for _, p := range apps.Catalog() {
		su := simSuite(t, p, 4, 0)
		data, err := treebuild.EncodeSuite(nil, su)
		if err != nil {
			t.Fatal(err)
		}
		back, rest, err := treebuild.DecodeSuite(data)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(rest) != 0 {
			t.Errorf("%s: %d trailing bytes", p.Name, len(rest))
		}
		if !reflect.DeepEqual(back, su) {
			t.Errorf("%s: decoded suite differs from the original", p.Name)
		}
	}
}

// TestSuiteCodecConcatenation: suites are self-delimiting, including
// an empty one.
func TestSuiteCodecConcatenation(t *testing.T) {
	p, err := apps.ByName("CrosswordSage")
	if err != nil {
		t.Fatal(err)
	}
	suites := []*trace.Suite{simSuite(t, p, 2, 5), {App: "Empty"}, simSuite(t, p, 1, 3)}
	var data []byte
	for _, su := range suites {
		if data, err = treebuild.EncodeSuite(data, su); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range suites {
		var got *trace.Suite
		if got, data, err = treebuild.DecodeSuite(data); err != nil {
			t.Fatalf("suite %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("suite %d differs after the round trip", i)
		}
	}
	if len(data) != 0 {
		t.Errorf("%d trailing bytes", len(data))
	}
}

// TestSuiteCodecDamage: a truncated suite or a length that overruns
// the remaining bytes is an error, never a partial suite or a panic.
func TestSuiteCodecDamage(t *testing.T) {
	p, err := apps.ByName("CrosswordSage")
	if err != nil {
		t.Fatal(err)
	}
	data, err := treebuild.EncodeSuite(nil, simSuite(t, p, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 1 + n/8 {
		if su, _, err := treebuild.DecodeSuite(data[:n]); err == nil {
			t.Fatalf("truncated to %d of %d bytes: decoded %d sessions, want an error",
				n, len(data), len(su.Sessions))
		}
	}
	huge := []byte{0x01, 'A', 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, _, err := treebuild.DecodeSuite(huge); err == nil {
		t.Error("session count beyond the remaining bytes accepted")
	}
	overrun := []byte{0x01, 'A', 0x01, 0x40, 'L'}
	if _, _, err := treebuild.DecodeSuite(overrun); err == nil {
		t.Error("session length beyond the remaining bytes accepted")
	}
}
