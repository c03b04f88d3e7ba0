package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"lagalyzer/internal/report"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// Shard partial state: the wire form a worker lagd returns for a
// "shard" job, consumed by the distributed coordinator
// (internal/dist). The payload is the mergeable part of a study — the
// session suites plus the shard's health ledger — NOT the derived
// analysis: the engine re-derives analysis deterministically at the
// coordinator, which is what makes a distributed merge byte-identical
// to a single-node run (the same argument that makes checkpoint
// resume byte-identical).
//
// Framing is paranoid by design, because this payload crosses a
// network that the fault-injection suite is allowed to damage:
//
//	8 bytes  magic "LAGSHRD2"
//	32 bytes SHA-256 of the payload
//	payload: uvarint n, n bytes of JSON StudyHealth,
//	         then each suite in the suite codec (treebuild.EncodeSuite)
//
// The sessions travel as LiLa v2.1, so a peer's bytes are decoded by
// the same fuzzed, Limits-guarded reader as a trace file. Any
// truncation, reset, or bit flip — in the header, checksum, or payload
// — surfaces as ErrBadShardState, never as a silently wrong merge. The
// coordinator treats ErrBadShardState as retryable wire damage. A
// payload of another framing version (e.g. the gob-based "LAGSHRD1")
// fails the magic check the same way.

// shardStateMagic identifies (and versions) the shard-state framing.
const shardStateMagic = "LAGSHRD2"

// ErrBadShardState marks a shard-state payload that failed its framing
// or checksum validation: the bytes on the wire are not the bytes the
// worker produced.
var ErrBadShardState = errors.New("serve: shard state damaged in transit")

// ShardState is one worker's contribution to a distributed study.
type ShardState struct {
	// Suites are the session suites the shard produced (simulated apps
	// or loaded trace files), in the shard's deterministic order:
	// profile order for study shards, sorted-app order for trace
	// shards.
	Suites []*trace.Suite
	// Health itemizes everything the shard lost or worked around, in
	// the same per-file/per-app shape the single-node pipeline uses, so
	// the coordinator's merged ledger is indistinguishable from a local
	// run's.
	Health *report.StudyHealth
}

// EncodeShardState serializes st with checksum framing.
func EncodeShardState(st *ShardState) ([]byte, error) {
	health, err := json.Marshal(st.Health)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding shard health: %w", err)
	}
	header := len(shardStateMagic) + sha256.Size
	out := make([]byte, header, header+binary.MaxVarintLen64+len(health))
	copy(out, shardStateMagic)
	out = binary.AppendUvarint(out, uint64(len(health)))
	out = append(out, health...)
	for _, su := range st.Suites {
		if out, err = treebuild.EncodeSuite(out, su); err != nil {
			return nil, fmt.Errorf("serve: encoding shard state: %w", err)
		}
	}
	sum := sha256.Sum256(out[header:])
	copy(out[len(shardStateMagic):], sum[:])
	return out, nil
}

// DecodeShardState parses and verifies a shard-state payload. Every
// failure mode — short header, wrong magic, checksum mismatch, an
// undecodable health or suite section — returns an error wrapping
// ErrBadShardState.
func DecodeShardState(data []byte) (*ShardState, error) {
	header := len(shardStateMagic) + sha256.Size
	if len(data) < header {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header",
			ErrBadShardState, len(data), header)
	}
	if string(data[:len(shardStateMagic)]) != shardStateMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadShardState, data[:len(shardStateMagic)])
	}
	payload := data[header:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(shardStateMagic):header]) {
		return nil, fmt.Errorf("%w: checksum mismatch over %d payload bytes",
			ErrBadShardState, len(payload))
	}
	// The checksum passed, so a decode failure below means the worker
	// encoded something this build cannot read, which is just as
	// unusable as wire damage.
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > uint64(len(payload)-k) {
		return nil, fmt.Errorf("%w: bad health section length", ErrBadShardState)
	}
	var st ShardState
	if err := json.Unmarshal(payload[k:k+int(n)], &st.Health); err != nil {
		return nil, fmt.Errorf("%w: health: %v", ErrBadShardState, err)
	}
	for rest := payload[k+int(n):]; len(rest) > 0; {
		var su *trace.Suite
		var err error
		if su, rest, err = treebuild.DecodeSuite(rest); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadShardState, err)
		}
		st.Suites = append(st.Suites, su)
	}
	return &st, nil
}

// shardStateOf extracts the mergeable partial state from a finished
// shard job's pipeline result.
func shardStateOf(res *report.StudyResult) *ShardState {
	st := &ShardState{Health: res.Health}
	for _, a := range res.Apps {
		st.Suites = append(st.Suites, a.Suite)
	}
	return st
}
