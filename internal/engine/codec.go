// Result and job serialization: the stable byte codec behind the
// persistent result store (internal/store) and the clusterd wire format.
// Every blob starts with a three-byte header — magic, schema version,
// payload kind — so a stale cache directory or a truncated file is
// rejected cleanly instead of being misread, followed by a gob stream.
// Gob encoding of the fixed wire structs is deterministic, so re-encoding
// a decoded blob reproduces it byte for byte (property-tested).
package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"clustersim/internal/pipeline"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

// encodeBufs pools the staging buffers behind EncodeResult/EncodeJobSpec:
// a serving tier persisting many results concurrently would otherwise pay
// a fresh growing buffer per encode. The encoded bytes are copied out to
// an exact-size slice before the buffer returns to the pool, so callers
// still own immutable blobs.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// sealBuf copies a pooled buffer's contents into an exact-size blob and
// recycles the buffer.
func sealBuf(b *bytes.Buffer) []byte {
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	encodeBufs.Put(b)
	return out
}

const (
	// codecMagic brands every engine blob.
	codecMagic = 0xC5
	// CodecVersion is the serialization schema version. It is part of the
	// blob header and of every persistent store key, so blobs written by a
	// different schema are never misread — they decode to ErrCodecVersion
	// and their store keys don't even collide.
	CodecVersion = 1

	kindJob    = 1
	kindResult = 2
)

// ErrCodec is the base class of all decode failures.
var ErrCodec = errors.New("engine: undecodable blob")

// ErrCodecVersion marks a blob written by a different schema version.
var ErrCodecVersion = fmt.Errorf("%w: schema version mismatch", ErrCodec)

// wireSimpoint carries a simpoint's identity (not its program: programs
// are synthesized deterministically from the suite tables, and results
// are keyed by program content hash before they ever reach a store).
type wireSimpoint struct {
	Name   string
	Bench  string
	FP     bool
	Weight float64
	Seed   int64
}

// wireResult is the serialized form of a successful Result.
type wireResult struct {
	Simpoint   wireSimpoint
	Setup      string
	Metrics    *pipeline.Metrics
	Complexity steer.Complexity
}

// header frames a payload kind.
func header(kind byte) []byte { return []byte{codecMagic, CodecVersion, kind} }

// checkHeader validates a blob's frame and returns the gob payload.
func checkHeader(blob []byte, kind byte) ([]byte, error) {
	if len(blob) < 3 {
		return nil, fmt.Errorf("%w: %d-byte blob", ErrCodec, len(blob))
	}
	if blob[0] != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCodec, blob[0])
	}
	if blob[1] != CodecVersion {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrCodecVersion, blob[1], CodecVersion)
	}
	if blob[2] != kind {
		return nil, fmt.Errorf("%w: payload kind %d, want %d", ErrCodec, blob[2], kind)
	}
	return blob[3:], nil
}

// EncodeResult serializes a successful result. Failed or canceled results
// are not serializable — they must never reach a persistent store.
func EncodeResult(res *Result) ([]byte, error) {
	if res == nil || res.Err != nil {
		return nil, fmt.Errorf("engine: refusing to encode a failed result")
	}
	if res.Simpoint == nil {
		return nil, fmt.Errorf("engine: result has no simpoint")
	}
	b := encodeBufs.Get().(*bytes.Buffer)
	b.Reset()
	b.Write(header(kindResult))
	err := gob.NewEncoder(b).Encode(wireResult{
		Simpoint: wireSimpoint{
			Name: res.Simpoint.Name, Bench: res.Simpoint.Bench,
			FP: res.Simpoint.FP, Weight: res.Simpoint.Weight, Seed: res.Simpoint.Seed,
		},
		Setup:      res.Setup,
		Metrics:    res.Metrics,
		Complexity: res.Complexity,
	})
	if err != nil {
		encodeBufs.Put(b)
		return nil, fmt.Errorf("engine: encoding result: %w", err)
	}
	return sealBuf(b), nil
}

// DecodeResult deserializes a result blob. The returned result's Simpoint
// carries identity only (Name, Bench, FP, Weight, Seed) — its Program is
// nil, since the blob is addressed by program content already; the engine
// replaces it with the submitting job's simpoint before results surface.
func DecodeResult(blob []byte) (*Result, error) {
	payload, err := checkHeader(blob, kindResult)
	if err != nil {
		return nil, err
	}
	var w wireResult
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if w.Metrics == nil {
		return nil, fmt.Errorf("%w: result without metrics", ErrCodec)
	}
	return &Result{
		Simpoint: &workload.Simpoint{
			Name: w.Simpoint.Name, Bench: w.Simpoint.Bench,
			FP: w.Simpoint.FP, Weight: w.Simpoint.Weight, Seed: w.Simpoint.Seed,
		},
		Setup:      w.Setup,
		Metrics:    w.Metrics,
		Complexity: w.Complexity,
	}, nil
}

// JobSpec is the declarative, serializable form of a Job: the wire format
// clusterd accepts. Programs are not shipped, so a spec names a suite
// simpoint and a setup spec; sim.JobFromSpec resolves it back to a
// runnable Job.
type JobSpec struct {
	// Simpoint is the suite point name ("gzip-1", "mcf").
	Simpoint string `json:"simpoint"`
	// Setup selects the steering configuration.
	Setup SetupSpec `json:"setup"`
	// Opts sizes the run.
	Opts OptionsSpec `json:"opts,omitempty"`
}

// SetupSpec names a steering configuration declaratively. NewSetup
// resolves it and rejects a field its kind ignores when set to anything
// but its default.
type SetupSpec struct {
	// Kind is one of "OP", "OP-nostall", "one-cluster", "ADV", "LC",
	// "SLC", "MOD" (hardware-only, no further fields), "OB", "RHOP"
	// (RegionMaxOps), "VC" (NumVC and MaxChainLen, or RegionMaxOps) and
	// "VC-comm" (NumVC).
	Kind string `json:"kind"`
	// NumClusters is the physical cluster count, 1..32; zero means 2.
	NumClusters int `json:"clusters,omitempty"`
	// NumVC is the virtual cluster count for VC kinds, 1..32; zero means
	// NumClusters.
	NumVC int `json:"num_vc,omitempty"`
	// RegionMaxOps caps the compiler region size; zero means unlimited.
	RegionMaxOps int `json:"region_max_ops,omitempty"`
	// MaxChainLen caps VC chain length; zero means the default.
	MaxChainLen int `json:"max_chain_len,omitempty"`
}

// OptionsSpec is the serializable subset of RunOptions: everything but
// histogram tracking, whose histograms the result codec does not carry.
type OptionsSpec struct {
	NumUops    int `json:"num_uops,omitempty"`
	WarmupUops int `json:"warmup_uops,omitempty"`
	// Machine overrides the Table 2 machine; absent means Table 2.
	Machine *MachineSpec `json:"machine,omitempty"`
}

// RunOptions converts the spec into engine options.
func (o OptionsSpec) RunOptions() RunOptions {
	ro := RunOptions{NumUops: o.NumUops, WarmupUops: o.WarmupUops}
	if o.Machine != nil {
		ro.Machine = *o.Machine
	}
	return ro
}

// EncodeJobSpec serializes a job spec with the codec header.
func EncodeJobSpec(spec JobSpec) ([]byte, error) {
	b := encodeBufs.Get().(*bytes.Buffer)
	b.Reset()
	b.Write(header(kindJob))
	if err := gob.NewEncoder(b).Encode(spec); err != nil {
		encodeBufs.Put(b)
		return nil, fmt.Errorf("engine: encoding job spec: %w", err)
	}
	return sealBuf(b), nil
}

// DecodeJobSpec deserializes a job spec blob.
func DecodeJobSpec(blob []byte) (JobSpec, error) {
	var spec JobSpec
	payload, err := checkHeader(blob, kindJob)
	if err != nil {
		return spec, err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return spec, nil
}
