// Package pipeline implements the clustered out-of-order core of the
// paper's Figure 1: a monolithic frontend (trace-driven fetch, gshare
// branch prediction, decode/rename/steer) feeding a clustered backend
// (per-cluster issue queues and functional units, explicit copy micro-ops
// over point-to-point links, unified LSQ and data-cache hierarchy) with a
// shared reorder buffer.
//
// The simulator is cycle-driven and trace-driven: branch outcomes and
// memory addresses come from the trace, mispredictions stall fetch until
// the branch resolves (no wrong-path execution), and every steering policy
// sees the identical micro-op stream.
//
// The cycle loop is allocation-free in steady state: in-flight micro-op
// and value state live in rings indexed by sequence number modulo a
// power-of-two window, scheduled events in a fixed-horizon event wheel,
// and the ROB/fetch pipe are head-tail rings — see Core in core.go and the
// README's Performance section for the design and its measured effect.
package pipeline

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/cluster"
	"clustersim/internal/interconnect"
)

// Config collects the machine parameters (paper Table 2).
type Config struct {
	// NumClusters is the backend cluster count.
	NumClusters int
	// FetchWidth is micro-ops fetched per cycle (6).
	FetchWidth int
	// SteerWidth is micro-ops decoded/renamed/steered per cycle (3+3).
	SteerWidth int
	// CommitWidth is micro-ops committed per cycle (3+3).
	CommitWidth int
	// FetchToDispatch is the frontend pipe depth in cycles (5).
	FetchToDispatch int
	// ROBSize is the reorder-buffer capacity (256+256).
	ROBSize int
	// LSQSize is the unified load/store queue capacity (256).
	LSQSize int
	// Cluster sizes each backend cluster.
	Cluster cluster.Config
	// Net parameterizes the inter-cluster links.
	Net interconnect.Config
	// Mem parameterizes the cache hierarchy.
	Mem cache.HierarchyConfig
	// BPredBits sizes the gshare predictor table (2^bits counters).
	BPredBits int
	// MaxCycles aborts runaway simulations; zero means 200M cycles.
	MaxCycles int64
	// WarmupUops excludes the first N committed micro-ops from the
	// reported metrics (caches, predictor and queues warm during them), a
	// standard simulation-point methodology. Zero disables warmup.
	WarmupUops int64
	// TrackHistograms enables per-cycle occupancy histograms (ROB, INT/FP
	// issue queues, copy queues) in the metrics, at a small simulation
	// cost. Off by default.
	TrackHistograms bool
	// Cancel optionally aborts a running simulation: Run polls the channel
	// every few thousand cycles and returns ErrCanceled once it is closed.
	// Nil disables cancellation.
	Cancel <-chan struct{}
}

// DefaultConfig returns the paper's 2-cluster machine; pass 4 for the
// scalability experiments of §5.4.
func DefaultConfig(numClusters int) Config {
	return Config{
		NumClusters:     numClusters,
		FetchWidth:      6,
		SteerWidth:      6,
		CommitWidth:     6,
		FetchToDispatch: 5,
		ROBSize:         512,
		LSQSize:         256,
		Cluster:         cluster.DefaultConfig(),
		Net:             interconnect.DefaultConfig(numClusters),
		Mem:             cache.DefaultHierarchyConfig(),
		BPredBits:       12,
	}
}

// Shape returns the structural fingerprint of the configuration: every
// field that determines the size of a Core's internal state, with the
// purely per-run fields (cycle budget, warmup window, histogram tracking,
// cancellation) zeroed. Two configs with equal Shapes can share a pooled
// Core via Core.Reset; Config is comparable, so the Shape can key a map
// directly.
func (c Config) Shape() Config {
	c.MaxCycles = 0
	c.WarmupUops = 0
	c.TrackHistograms = false
	c.Cancel = nil
	return c
}

// MaxClusters is the largest supported cluster count.
const MaxClusters = 32

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.NumClusters <= 0 || c.NumClusters > MaxClusters {
		return fmt.Errorf("pipeline: %d clusters (1..%d supported)", c.NumClusters, MaxClusters)
	}
	if c.FetchWidth <= 0 || c.SteerWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("pipeline: non-positive width in %+v", c)
	}
	if c.FetchToDispatch < 1 {
		return fmt.Errorf("pipeline: fetch-to-dispatch %d", c.FetchToDispatch)
	}
	if c.ROBSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("pipeline: non-positive ROB/LSQ in %+v", c)
	}
	if c.Net.NumClusters != c.NumClusters {
		return fmt.Errorf("pipeline: network endpoints %d != clusters %d",
			c.Net.NumClusters, c.NumClusters)
	}
	if c.BPredBits < 4 || c.BPredBits > 24 {
		return fmt.Errorf("pipeline: bpred bits %d (4..24 supported)", c.BPredBits)
	}
	return nil
}
