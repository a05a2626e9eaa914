// Package interconnect models the dedicated point-to-point network that
// connects the backend clusters: a full mesh of bidirectional links, each
// direction carrying one copy per cycle with a fixed latency (paper
// Table 2: "bi-directional point-to-point link, 1 cycle latency,
// 1 copy/cycle").
package interconnect

import "fmt"

// Topology selects the link structure.
type Topology uint8

const (
	// TopologyPointToPoint is a full mesh of dedicated links (the paper's
	// configuration): every transfer is a single hop.
	TopologyPointToPoint Topology = iota
	// TopologyRing connects clusters in a bidirectional ring; transfers
	// take shortest-path hops, each hop paying the latency and consuming
	// bandwidth on every traversed segment. Rings scale better in wiring
	// at higher cluster counts — the trade the scalability ablation
	// quantifies.
	TopologyRing
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopologyPointToPoint:
		return "p2p"
	case TopologyRing:
		return "ring"
	}
	return fmt.Sprintf("topology(%d)", uint8(t))
}

// Config parameterizes the network.
type Config struct {
	// NumClusters is the endpoint count.
	NumClusters int
	// Latency is the per-hop transfer latency in cycles.
	Latency int
	// BandwidthPerLink is the copies per cycle per link direction.
	BandwidthPerLink int
	// Topology selects full mesh (default) or ring.
	Topology Topology
}

// DefaultConfig returns the paper's parameters for n clusters.
func DefaultConfig(n int) Config {
	return Config{NumClusters: n, Latency: 1, BandwidthPerLink: 1}
}

// Network tracks per-cycle link occupancy for a full point-to-point mesh.
type Network struct {
	cfg Config
	// used[src*n+dst] counts transfers reserved in the current cycle.
	used  []int
	cycle int64

	// Transfers counts total reservations; Conflicts counts refusals.
	Transfers, Conflicts uint64
}

// New builds the network.
func New(cfg Config) (*Network, error) {
	if cfg.NumClusters <= 0 {
		return nil, fmt.Errorf("interconnect: %d clusters", cfg.NumClusters)
	}
	// A copy must land in a later cycle than the one that sends it: the
	// core drains each cycle's arrivals before it issues.
	if cfg.Latency <= 0 {
		return nil, fmt.Errorf("interconnect: Latency %d, want at least 1 cycle", cfg.Latency)
	}
	if cfg.BandwidthPerLink <= 0 {
		return nil, fmt.Errorf("interconnect: BandwidthPerLink %d, want at least 1", cfg.BandwidthPerLink)
	}
	n := cfg.NumClusters
	return &Network{cfg: cfg, used: make([]int, n*n)}, nil
}

// MustNew builds the network, panicking on error. For tests.
func MustNew(cfg Config) *Network {
	nw, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return nw
}

// Latency returns the per-hop latency.
func (nw *Network) Latency() int { return nw.cfg.Latency }

func (nw *Network) rollTo(cycle int64) {
	if cycle != nw.cycle {
		for i := range nw.used {
			nw.used[i] = 0
		}
		nw.cycle = cycle
	}
}

// Reserve claims one transfer on the src→dst path for the given cycle and
// returns the arrival cycle, or ok=false if any traversed link direction
// is at bandwidth this cycle. src must differ from dst.
//
// Point-to-point: one hop on the dedicated link. Ring: shortest-path hops,
// atomically reserving every segment (a refused segment releases nothing,
// because reservations are all-or-nothing within the same cycle window).
func (nw *Network) Reserve(cycle int64, src, dst int) (arrival int64, ok bool) {
	if src == dst {
		panic(fmt.Sprintf("interconnect: reserve %d→%d (same cluster)", src, dst))
	}
	nw.rollTo(cycle)
	if nw.cfg.Topology == TopologyRing && nw.cfg.NumClusters > 2 {
		return nw.reserveRing(cycle, src, dst)
	}
	idx := src*nw.cfg.NumClusters + dst
	if nw.used[idx] >= nw.cfg.BandwidthPerLink {
		nw.Conflicts++
		return 0, false
	}
	nw.used[idx]++
	nw.Transfers++
	return cycle + int64(nw.cfg.Latency), true
}

// reserveRing routes src→dst over ring segments in the shorter direction.
func (nw *Network) reserveRing(cycle int64, src, dst int) (int64, bool) {
	n := nw.cfg.NumClusters
	cw := (dst - src + n) % n  // hops going clockwise
	ccw := (src - dst + n) % n // hops going counter-clockwise
	step := 1
	hops := cw
	if ccw < cw {
		step = n - 1 // i.e. -1 mod n
		hops = ccw
	}
	// Gather the segment indices, then reserve all or nothing. The array
	// stays on the stack (clusters are capped at 32, so hops ≤ 16).
	var segArr [16]int
	segs := segArr[:0]
	at := src
	for h := 0; h < hops; h++ {
		next := (at + step) % n
		segs = append(segs, at*n+next)
		at = next
	}
	for _, s := range segs {
		if nw.used[s] >= nw.cfg.BandwidthPerLink {
			nw.Conflicts++
			return 0, false
		}
	}
	for _, s := range segs {
		nw.used[s]++
	}
	nw.Transfers++
	return cycle + int64(hops)*int64(nw.cfg.Latency), true
}

// Reset clears the counters and occupancy (between runs).
func (nw *Network) Reset() {
	for i := range nw.used {
		nw.used[i] = 0
	}
	nw.cycle = 0
	nw.Transfers, nw.Conflicts = 0, 0
}
