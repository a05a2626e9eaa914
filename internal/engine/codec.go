// Result serialization: the stable byte codec behind the persistent result
// store (internal/store) and clusterd's result fetches, plus the job spec
// that travels as JSON. Every blob starts with a three-byte header — magic,
// schema version, payload kind — so a stale cache directory or a truncated
// file is rejected cleanly instead of being misread. A fixed field layout
// follows: varints for the integers, length-prefixed strings, the weight's
// float bits, and nothing else. Decoding accepts only the encoder's own
// output (minimal varints, 0/1 booleans, no trailing byte), so re-encoding
// a decoded blob reproduces it byte for byte (property-tested).
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"clustersim/internal/pipeline"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

const (
	// codecMagic brands every engine blob.
	codecMagic = 0xC5
	// CodecVersion is the serialization schema version. It is part of the
	// blob header and of every persistent store key, so blobs written by a
	// different schema are never misread — they decode to ErrCodecVersion
	// and their store keys don't even collide.
	CodecVersion = 2

	kindResult = 2
)

// ErrCodec is the base class of all decode failures.
var ErrCodec = errors.New("engine: undecodable blob")

// ErrCodecVersion marks a blob written by a different schema version.
var ErrCodecVersion = fmt.Errorf("%w: schema version mismatch", ErrCodec)

// checkHeader validates a result blob's frame and returns its payload.
func checkHeader(blob []byte) ([]byte, error) {
	if len(blob) < 3 {
		return nil, fmt.Errorf("%w: %d-byte blob", ErrCodec, len(blob))
	}
	if blob[0] != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCodec, blob[0])
	}
	if blob[1] != CodecVersion {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrCodecVersion, blob[1], CodecVersion)
	}
	if blob[2] != kindResult {
		return nil, fmt.Errorf("%w: payload kind %d, want %d", ErrCodec, blob[2], kindResult)
	}
	return blob[3:], nil
}

// EncodeResult serializes a successful result: the simpoint's identity
// (not its program: programs are synthesized deterministically from the
// suite tables, and results are keyed by program content hash before they
// ever reach a store), the setup label, the metrics and the steering
// complexity. Failed or canceled results are not serializable — they must
// never reach a persistent store — and neither are histogram runs, which
// the layout does not carry.
func EncodeResult(res *Result) ([]byte, error) {
	switch {
	case res == nil || res.Err != nil:
		return nil, fmt.Errorf("engine: refusing to encode a failed result")
	case res.Simpoint == nil:
		return nil, fmt.Errorf("engine: result has no simpoint")
	case res.Metrics == nil:
		return nil, fmt.Errorf("engine: result has no metrics")
	case res.Metrics.Histograms != nil:
		return nil, fmt.Errorf("engine: refusing to encode a result with histograms")
	}
	sp, m := res.Simpoint, res.Metrics
	var scratch [512]byte // built on the stack, copied out at its exact size
	b := append(scratch[:0], codecMagic, CodecVersion, kindResult)
	b = appendString(b, sp.Name)
	b = appendString(b, sp.Bench)
	b = appendBool(b, sp.FP)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sp.Weight))
	b = binary.AppendVarint(b, sp.Seed)
	b = appendString(b, res.Setup)
	for _, p := range signedFields(m) {
		b = binary.AppendVarint(b, *p)
	}
	for _, p := range unsignedFields(m, &res.Complexity) {
		b = binary.AppendUvarint(b, *p)
	}
	b = appendBool(b, m.MaxCyclesExceeded)
	b = binary.AppendUvarint(b, uint64(len(m.PerCluster)))
	for i := range m.PerCluster {
		for _, p := range clusterFields(&m.PerCluster[i]) {
			b = binary.AppendUvarint(b, *p)
		}
	}
	return append([]byte(nil), b...), nil
}

// signedFields, unsignedFields and clusterFields list the layout's
// integers in blob order; EncodeResult and DecodeResult both walk them.
func signedFields(m *pipeline.Metrics) [15]*int64 {
	s := &m.StallCycles
	return [...]*int64{&m.Cycles, &m.Uops, &m.Copies, &m.AllocStallCycles,
		&s[0], &s[1], &s[2], &s[3], &s[4], &s[5], &s[6], &s[7],
		&m.FetchStallCycles, &m.Branches, &m.Mispredicts}
}

func unsignedFields(m *pipeline.Metrics, c *steer.Complexity) [13]*uint64 {
	return [...]*uint64{&m.LinkTransfers, &m.LinkConflicts,
		&m.L1Hits, &m.L2Hits, &m.MemAccesses, &m.LSQForwards,
		&c.DependenceChecks, &c.VoteOps, &c.SerializedDecisions,
		&c.CounterReads, &c.MapReads, &c.MapWrites, &c.Steered}
}

func clusterFields(pc *pipeline.ClusterMetrics) [8]*uint64 {
	return [...]*uint64{&pc.Dispatched, &pc.CopiesInserted, &pc.OccupancySum,
		&pc.IntIssued, &pc.FPIssued, &pc.CopyIssued, &pc.IntOccSum, &pc.FPOccSum}
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeResult deserializes a result blob. The returned result's Simpoint
// carries identity only (Name, Bench, FP, Weight, Seed) — its Program is
// nil, since the blob is addressed by program content already; the engine
// replaces it with the submitting job's simpoint before results surface.
// A truncated or malformed field, more than pipeline.MaxClusters clusters
// and any trailing byte are ErrCodec.
func DecodeResult(blob []byte) (*Result, error) {
	payload, err := checkHeader(blob)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: payload}
	sp := &workload.Simpoint{Name: d.string(), Bench: d.string(), FP: d.bool()}
	sp.Weight = math.Float64frombits(d.fixed64())
	sp.Seed = d.varint()
	res := &Result{Simpoint: sp, Setup: d.string(), Metrics: &pipeline.Metrics{}}
	m := res.Metrics
	for _, p := range signedFields(m) {
		*p = d.varint()
	}
	for _, p := range unsignedFields(m, &res.Complexity) {
		*p = d.uvarint()
	}
	m.MaxCyclesExceeded = d.bool()
	n := d.uvarint()
	if n > pipeline.MaxClusters {
		return nil, fmt.Errorf("%w: %d clusters, at most %d", ErrCodec, n, pipeline.MaxClusters)
	}
	if n > 0 {
		m.PerCluster = make([]pipeline.ClusterMetrics, n)
	}
	for i := range m.PerCluster {
		for _, p := range clusterFields(&m.PerCluster[i]) {
			*p = d.uvarint()
		}
	}
	switch {
	case d.bad:
		return nil, fmt.Errorf("%w: truncated or malformed field", ErrCodec)
	case len(d.buf) > 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.buf))
	}
	return res, nil
}

// decoder reads the fields of a result payload in order. The first
// truncated or non-canonical field marks it bad and empties it, so every
// later read fails too and DecodeResult checks once, at the end.
type decoder struct {
	buf []byte
	bad bool
}

func (d *decoder) fail() {
	d.bad, d.buf = true, nil
}

// canonical reports whether an n-byte varint is minimal: only a
// one-byte varint may end in a zero byte.
func (d *decoder) canonical(n int) bool {
	return n > 0 && (n == 1 || d.buf[n-1] != 0)
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if !d.canonical(n) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if !d.canonical(n) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) fixed64() uint64 {
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) bool() bool {
	if len(d.buf) == 0 || d.buf[0] > 1 {
		d.fail()
		return false
	}
	v := d.buf[0] == 1
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
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
