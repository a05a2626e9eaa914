package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/pipeline"
	"clustersim/internal/stats"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

// sampleResult builds a fully-populated successful result without running
// a simulation.
func sampleResult() *engine.Result {
	return &engine.Result{
		Simpoint: &workload.Simpoint{Name: "gzip-1", Bench: "gzip", FP: false, Weight: 0.25, Seed: 42},
		Setup:    "VC(2->4)",
		Metrics: &pipeline.Metrics{
			Cycles: 12345, Uops: 20000, Copies: 321,
			AllocStallCycles: 17,
			StallCycles:      [8]int64{0, 1, 2, 3, 4, 5, 6, 7},
			FetchStallCycles: 99, Branches: 2000, Mispredicts: 150,
			LinkTransfers: 400, LinkConflicts: 7,
			L1Hits: 5000, L2Hits: 600, MemAccesses: 70, LSQForwards: 8,
			PerCluster: []pipeline.ClusterMetrics{
				{Dispatched: 10000, CopiesInserted: 100, OccupancySum: 999, IntIssued: 8000, FPIssued: 100, CopyIssued: 100, IntOccSum: 5, FPOccSum: 6},
				{Dispatched: 10000, CopiesInserted: 221, OccupancySum: 888, IntIssued: 7000, FPIssued: 200, CopyIssued: 221, IntOccSum: 7, FPOccSum: 8},
			},
		},
		Complexity: steer.Complexity{
			DependenceChecks: 1, VoteOps: 2, SerializedDecisions: 3,
			CounterReads: 4, MapReads: 5, MapWrites: 6, Steered: 20000,
		},
	}
}

// describe prints everything the codec carries, for failure messages.
func describe(r *engine.Result) string {
	return fmt.Sprintf("%q %+v %+v %+v", r.Setup, *r.Simpoint, *r.Metrics, r.Complexity)
}

// Encode → decode → re-encode must be byte-identical, and every field must
// survive the round trip (simpoint identity only: programs don't travel).
func TestResultCodecRoundTrip(t *testing.T) {
	res := sampleResult()
	blob, err := engine.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.DecodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, res) {
		t.Errorf("round trip changed the result:\n got %s\nwant %s", describe(dec), describe(res))
	}
	again, err := engine.EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Error("re-encoding a decoded result is not byte-identical")
	}
}

// fillDistinct sets every field reachable from v to a distinct non-zero
// value, so a field the codec forgets decodes as zero and shows. The
// named pointer fields are skipped: the codec carries neither programs
// nor histograms. Any other kind fails the test, so a new field of a kind
// the filler does not know cannot pass unfilled.
func fillDistinct(t *testing.T, v reflect.Value, next *int64, skip map[string]bool) {
	t.Helper()
	*next++
	n := *next * 1_000_003 // multi-byte varints
	switch v.Kind() {
	case reflect.Int64:
		if *next%2 == 0 {
			n = -n // both signs through the zigzag varint
		}
		v.SetInt(n)
	case reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + strconv.FormatInt(n, 10))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next, skip)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next, skip)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if skip[v.Type().Name()+"."+f.Name] {
				continue
			}
			fillDistinct(t, v.Field(i), next, skip)
		}
	default:
		t.Fatalf("fillDistinct: %s values unsupported; teach the codec and this filler", v.Type())
	}
}

// Every field of Metrics, ClusterMetrics, Complexity and the simpoint's
// identity survives the codec: a field added to any of them without a
// codec change fails here.
func TestResultCodecCarriesEveryField(t *testing.T) {
	skip := map[string]bool{"Simpoint.Program": true, "Metrics.Histograms": true}
	res := &engine.Result{Simpoint: &workload.Simpoint{}, Metrics: &pipeline.Metrics{}}
	var next int64
	fillDistinct(t, reflect.ValueOf(res.Simpoint).Elem(), &next, skip)
	fillDistinct(t, reflect.ValueOf(&res.Setup).Elem(), &next, skip)
	fillDistinct(t, reflect.ValueOf(res.Metrics).Elem(), &next, skip)
	fillDistinct(t, reflect.ValueOf(&res.Complexity).Elem(), &next, skip)

	blob, err := engine.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.DecodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, res) {
		t.Errorf("a field did not survive the codec:\n got %s\nwant %s", describe(dec), describe(res))
	}
	if again, err := engine.EncodeResult(dec); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("re-encoding is not byte-identical (err %v)", err)
	}
}

// Every truncation of a valid blob must fail cleanly; so must a trailing
// byte, a non-canonical field, and blobs from a different schema version
// or of the wrong payload kind.
func TestResultCodecRejectsMangledBlobs(t *testing.T) {
	blob, err := engine.EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := engine.DecodeResult(blob[:cut]); !errors.Is(err, engine.ErrCodec) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrCodec", cut, len(blob), err)
		}
	}
	if _, err := engine.DecodeResult(append(blob[:len(blob):len(blob)], 0)); !errors.Is(err, engine.ErrCodec) {
		t.Errorf("trailing byte: err = %v, want ErrCodec", err)
	}

	mangle := func(i int, b byte) []byte {
		m := append([]byte(nil), blob...)
		m[i] = b
		return m
	}
	if _, err := engine.DecodeResult(mangle(1, 1)); !errors.Is(err, engine.ErrCodecVersion) {
		t.Errorf("v1 header: err = %v, want ErrCodecVersion", err)
	}
	if _, err := engine.DecodeResult(mangle(1, engine.CodecVersion+1)); !errors.Is(err, engine.ErrCodecVersion) {
		t.Errorf("future version: err = %v, want ErrCodecVersion", err)
	}
	if _, err := engine.DecodeResult(mangle(2, 1)); err == nil || errors.Is(err, engine.ErrCodecVersion) {
		t.Errorf("wrong payload kind: err = %v, want a non-version ErrCodec", err)
	}
	// The FP flag follows the two one-byte-length strings "gzip-1", "gzip".
	fp := 3 + 1 + len("gzip-1") + 1 + len("gzip")
	if _, err := engine.DecodeResult(mangle(fp, 2)); !errors.Is(err, engine.ErrCodec) {
		t.Errorf("boolean byte 2: err = %v, want ErrCodec", err)
	}
}

// A blob may carry at most pipeline.MaxClusters per-cluster records.
func TestResultCodecClusterBound(t *testing.T) {
	res := sampleResult()
	res.Metrics.PerCluster = nil
	blob, err := engine.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	// The blob ends in the cluster count, 0; splice in n all-zero cluster
	// records.
	withClusters := func(n int) []byte {
		b := append([]byte(nil), blob[:len(blob)-1]...)
		return append(append(b, byte(n)), make([]byte, 8*n)...)
	}
	dec, err := engine.DecodeResult(withClusters(pipeline.MaxClusters))
	if err != nil || len(dec.Metrics.PerCluster) != pipeline.MaxClusters {
		t.Fatalf("%d clusters: err = %v", pipeline.MaxClusters, err)
	}
	if _, err := engine.DecodeResult(withClusters(pipeline.MaxClusters + 1)); !errors.Is(err, engine.ErrCodec) {
		t.Errorf("%d clusters: err = %v, want ErrCodec", pipeline.MaxClusters+1, err)
	}
}

func TestEncodeFailedResultRefused(t *testing.T) {
	res := sampleResult()
	res.Err = errors.New("boom")
	if _, err := engine.EncodeResult(res); err == nil {
		t.Error("a failed result must not be serializable")
	}
	if _, err := engine.EncodeResult(nil); err == nil {
		t.Error("a nil result must not be serializable")
	}
	res = sampleResult()
	res.Metrics.Histograms = &pipeline.OccupancyHistograms{ROB: stats.NewHistogram(16)}
	if _, err := engine.EncodeResult(res); err == nil {
		t.Error("a result with histograms must not be serializable")
	}
}

// Decoding attacker-ish arbitrary bytes must never panic, and a blob that
// decodes must be the one encoding of its result: re-encoding reproduces
// it byte for byte.
func FuzzDecodeResult(f *testing.F) {
	blob, err := engine.EncodeResult(sampleResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{0xC5})
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := engine.DecodeResult(data)
		if err != nil {
			return
		}
		again, err := engine.EncodeResult(res)
		if err != nil {
			t.Fatalf("decoded blob refused re-encoding: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("encode(decode(x)) != x:\n got %x\nwant %x", again, data)
		}
	})
}
