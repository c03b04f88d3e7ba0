package treebuild

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

// The suite codec is the one persisted and wire form of session data
// outside trace files: checkpoint payloads and distributed shard state
// both carry their suites in it. Each session is a complete LiLa v2.1
// trace (per-block DEFLATE), so decoding reuses the fuzzed reader and
// its Limits instead of trusting a second serialization:
//
//	uvarint len(app), app
//	uvarint session count
//	per session: uvarint n, n bytes of LiLa v2.1 (flate)
//
// A suite is self-delimiting, so callers may concatenate several.

// suiteWriteOptions is the fixed session encoding of the suite codec.
var suiteWriteOptions = lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate}

// EncodeSuite appends the encoding of su to dst and returns the
// extended slice.
func EncodeSuite(dst []byte, su *trace.Suite) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(su.App)))
	dst = append(dst, su.App...)
	dst = binary.AppendUvarint(dst, uint64(len(su.Sessions)))
	var buf bytes.Buffer
	for _, s := range su.Sessions {
		buf.Reset()
		if err := lila.WriteSessionOptions(&buf, suiteWriteOptions, s); err != nil {
			return nil, fmt.Errorf("treebuild: encoding %s session %d: %w", su.App, s.ID, err)
		}
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		dst = append(dst, buf.Bytes()...)
	}
	return dst, nil
}

// DecodeSuite decodes one suite from the front of data and returns it
// with the bytes that follow it. Decoding is strict: every length is
// checked against the bytes remaining, and each session goes through
// ReadSessionOptions under lila.DefaultLimits, so damaged or hostile
// input yields an error, never a partial suite.
func DecodeSuite(data []byte) (*trace.Suite, []byte, error) {
	limits := lila.DefaultLimits()
	app, data, err := suiteChunk(data, "app name", int64(limits.MaxStringLen))
	if err != nil {
		return nil, nil, err
	}
	n, data, err := suiteUvarint(data, "session count")
	if err != nil {
		return nil, nil, err
	}
	// Every session takes at least its one-byte length prefix.
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("treebuild: suite: %d sessions in %d bytes", n, len(data))
	}
	su := &trace.Suite{App: string(app)}
	if n > 0 {
		su.Sessions = make([]*trace.Session, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var enc []byte
		if enc, data, err = suiteChunk(data, "session", limits.MaxTraceBytes); err != nil {
			return nil, nil, err
		}
		s, _, err := ReadSessionOptions(bytes.NewReader(enc),
			lila.ReaderOptions{Limits: limits}, Options{Limits: limits})
		if err != nil {
			return nil, nil, fmt.Errorf("treebuild: suite %s session %d: %w", su.App, i, err)
		}
		su.Sessions = append(su.Sessions, s)
	}
	return su, data, nil
}

// suiteUvarint reads one uvarint from the front of data.
func suiteUvarint(data []byte, what string) (uint64, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("treebuild: suite: truncated or overlong %s", what)
	}
	return v, data[k:], nil
}

// suiteChunk reads a uvarint length and that many bytes from the front
// of data, rejecting lengths beyond max or the bytes remaining.
func suiteChunk(data []byte, what string, max int64) ([]byte, []byte, error) {
	n, data, err := suiteUvarint(data, what+" length")
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(max) || n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("treebuild: suite: %s length %d out of bounds (%d bytes remain)", what, n, len(data))
	}
	return data[:n], data[n:], nil
}
