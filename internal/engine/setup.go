package engine

import (
	"fmt"
	"strconv"

	"clustersim/internal/interconnect"
	"clustersim/internal/partition"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
)

// Setup is one steering configuration (paper Table 3): the declarative
// spec that names it, plus the label reports print. It is a plain value;
// the compiler pass and runtime policy it stands for are resolved from
// the spec in one place (resolve), so a Setup crosses a process boundary
// as its SetupSpec alone.
type Setup struct {
	SetupSpec
	// Label is the configuration name used in reports ("OP", "VC(2->4)"),
	// derived from the spec by NewSetup. The engine derives it again for
	// its cache keys and results, so an edited Label never aliases another
	// configuration.
	Label string
}

// NewSetup resolves a spec into a Setup, with the cluster count defaulted
// and the label derived. A spec the resolver rejects (unknown kind, a
// count out of range, a field the kind ignores) returns the resolver's
// error together with a Setup whose runs fail with that same error.
func NewSetup(spec SetupSpec) (Setup, error) {
	rs, err := resolve(spec)
	spec.NumClusters = rs.clusters
	return Setup{SetupSpec: spec, Label: rs.label}, err
}

// field is a set of the optional SetupSpec fields a kind reads.
type field uint8

const (
	takesNumVC field = 1 << iota
	takesRegion
	takesChain
)

// pass is a compile-time steering pass; name keys its output in caches.
type pass struct {
	name string
	run  func(*prog.Program, partition.Options)
}

var (
	passOB   = &pass{"OB", partition.AnnotateOB}
	passRHOP = &pass{"RHOP", partition.AnnotateRHOP}
	passVC   = &pass{"VC", partition.AnnotateVC}
)

// kind is one steering scheme: the compiler pass it runs (nil for the
// hardware-only schemes), the runtime policy it steers with, and the
// optional spec fields it reads.
type kind struct {
	pass   *pass
	policy func(resolved) steer.Policy
	takes  field
}

func static(r resolved) steer.Policy { return &steer.Static{Label: r.label} }

// kinds is every steering scheme a SetupSpec can name: the paper's five
// (OP, one-cluster, OB, RHOP, VC), the hardware heuristics of the policy
// survey (ADV, LC, SLC, MOD), and the OP-nostall and VC-comm variants.
var kinds = map[string]kind{
	"OP":          {policy: func(resolved) steer.Policy { return &steer.OP{} }},
	"OP-nostall":  {policy: func(resolved) steer.Policy { return &steer.OP{NoStall: true} }},
	"one-cluster": {policy: func(resolved) steer.Policy { return &steer.OneCluster{} }},
	"ADV":         {policy: func(resolved) steer.Policy { return &steer.DependenceBalanced{} }},
	"LC":          {policy: func(resolved) steer.Policy { return &steer.LeastLoaded{} }},
	"SLC":         {policy: func(resolved) steer.Policy { return &steer.Slice{} }},
	"MOD":         {policy: func(resolved) steer.Policy { return &steer.ModN{} }},
	"OB":          {pass: passOB, policy: static, takes: takesRegion},
	"RHOP":        {pass: passRHOP, policy: static, takes: takesRegion},
	"VC": {pass: passVC, takes: takesNumVC | takesRegion | takesChain,
		policy: func(r resolved) steer.Policy { return steer.NewVC(r.numVC) }},
	"VC-comm": {pass: passVC, takes: takesNumVC,
		policy: func(r resolved) steer.Policy { return steer.NewVCComm(r.numVC) }},
}

// resolved is a setup spec resolved to what a run executes, with every
// default filled in.
type resolved struct {
	kind
	label string
	// clusters is the physical cluster count; numVC the pass's target
	// count (virtual clusters for VC, physical ones for OB and RHOP).
	clusters, numVC           int
	regionMaxOps, maxChainLen int
	// sig is the pass signature folded into result keys ("VC/2/0/4");
	// empty for hardware-only kinds.
	sig string
}

// resolve is the one place that maps a SetupSpec to its label, pass and
// policy, and the one place that validates it. Even on error the cluster
// count and label are filled in, best effort, for NewSetup.
func resolve(s SetupSpec) (resolved, error) {
	r := resolved{clusters: s.NumClusters, numVC: s.NumVC,
		regionMaxOps: s.RegionMaxOps, maxChainLen: s.MaxChainLen}
	if r.clusters == 0 {
		r.clusters = 2
	}
	if r.numVC == 0 {
		r.numVC = r.clusters
	}
	r.label = s.Kind
	if r.numVC != r.clusters {
		r.label = fmt.Sprintf("%s(%d->%d)", r.label, r.numVC, r.clusters)
	}
	if r.regionMaxOps != 0 {
		r.label = fmt.Sprintf("%s/region%d", r.label, r.regionMaxOps)
	}
	if r.maxChainLen != 0 {
		r.label = fmt.Sprintf("%s/chain%d", r.label, r.maxChainLen)
	}

	k, ok := kinds[s.Kind]
	bad := func(format string, args ...any) (resolved, error) {
		return r, fmt.Errorf("engine: setup %q: "+format, append([]any{s.Kind}, args...)...)
	}
	switch {
	case !ok:
		return bad("unknown kind (want OP, OP-nostall, one-cluster, ADV, LC, SLC, MOD, OB, RHOP, VC or VC-comm)")
	case r.clusters < 1 || r.clusters > pipeline.MaxClusters:
		return bad("clusters %d outside 1..%d", r.clusters, pipeline.MaxClusters)
	case r.numVC < 1 || r.numVC > pipeline.MaxClusters:
		return bad("num_vc %d outside 1..%d", r.numVC, pipeline.MaxClusters)
	case r.regionMaxOps < 0:
		return bad("negative region_max_ops %d", r.regionMaxOps)
	case r.maxChainLen < 0:
		return bad("negative max_chain_len %d", r.maxChainLen)
	case k.takes&takesNumVC == 0 && r.numVC != r.clusters:
		return bad("takes no num_vc")
	case k.takes&takesRegion == 0 && r.regionMaxOps != 0:
		return bad("takes no region_max_ops")
	case k.takes&takesChain == 0 && r.maxChainLen != 0:
		return bad("takes no max_chain_len")
	case r.regionMaxOps != 0 && (r.numVC != r.clusters || r.maxChainLen != 0):
		return bad("region_max_ops excludes num_vc and max_chain_len")
	}
	r.kind = k
	if k.pass != nil {
		r.sig = k.pass.name + "/" + strconv.Itoa(r.numVC) + "/" +
			strconv.Itoa(r.regionMaxOps) + "/" + strconv.Itoa(r.maxChainLen)
	}
	return r, nil
}

// MachineSpec overrides the paper's Table 2 machine knob by knob: exactly
// the parameters the sensitivity sweeps vary. A zero knob means its
// Table 2 value; the zero MachineSpec is the Table 2 machine.
type MachineSpec struct {
	// LinkLatency is the per-hop inter-cluster link latency in cycles,
	// 1..64 (Table 2: 1).
	LinkLatency int `json:"link_latency,omitempty"`
	// Topology is "p2p", the paper's point-to-point mesh (Table 2), or
	// "ring", a bidirectional ring.
	Topology string `json:"topology,omitempty"`
	// LinkBandwidth is copies per cycle per link direction, 1..16
	// (Table 2: 1).
	LinkBandwidth int `json:"link_bandwidth,omitempty"`
	// CopyIssue is the copy micro-ops each cluster issues per cycle,
	// 1..16 (Table 2: 1).
	CopyIssue int `json:"copy_issue,omitempty"`
	// IQ is the entries of each cluster's INT and of its FP issue queue,
	// 1..512, the ROB size (Table 2: 48).
	IQ int `json:"iq,omitempty"`
	// PrefetchDegree is the stream prefetcher's next-line count, 1..16
	// (Table 2: 4), or PrefetchOff (-1). Zero already means "Table 2",
	// so "no prefetching" has its own value.
	PrefetchDegree int `json:"prefetch_degree,omitempty"`
}

// PrefetchOff is the MachineSpec.PrefetchDegree that turns stream
// prefetching off (a machine prefetch degree of 0).
const PrefetchOff = -1

// topologies maps MachineSpec.Topology names to interconnect topologies.
var topologies = map[string]interconnect.Topology{
	"p2p":  interconnect.TopologyPointToPoint,
	"ring": interconnect.TopologyRing,
}

// applyMachine is the one place that validates a machine override and
// resolves it onto cfg, the Table 2 machine. It returns the canonical
// override's key: every knob whose resolved value differs from cfg's, in
// a fixed order, as "name=value"; a knob set to its Table 2 value, or
// one that changes nothing on this machine (a ring of two clusters), is
// dropped, so an override that resolves to the Table 2 machine keys as "".
func applyMachine(cfg *pipeline.Config, m *MachineSpec) (string, error) {
	var key []byte
	var err error
	set := func(name string, v, lo, hi int, dst *int) {
		switch {
		case v == 0 || err != nil:
			return
		case v < lo || v > hi:
			err = fmt.Errorf("engine: machine %s %d outside %d..%d", name, v, lo, hi)
			return
		case v == PrefetchOff: // only prefetch_degree's bound admits it
			v = 0
		}
		if *dst != v {
			*dst = v
			key = strconv.AppendInt(append(key, ","+name+"="...), int64(v), 10)
		}
	}
	set("link_latency", m.LinkLatency, 1, 64, &cfg.Net.Latency)
	set("link_bandwidth", m.LinkBandwidth, 1, 16, &cfg.Net.BandwidthPerLink)
	set("copy_issue", m.CopyIssue, 1, 16, &cfg.Cluster.IssueCopy)
	set("iq", m.IQ, 1, 512, &cfg.Cluster.IQInt)
	if m.IQ > 0 { // Table 2 sizes both queues alike, so "iq" keys both
		cfg.Cluster.IQFP = m.IQ
	}
	set("prefetch_degree", m.PrefetchDegree, PrefetchOff, 16, &cfg.Mem.PrefetchDegree)
	if err != nil {
		return "", err
	}
	if m.Topology != "" {
		t, ok := topologies[m.Topology]
		if !ok {
			return "", fmt.Errorf("engine: machine topology %q (want p2p or ring)", m.Topology)
		}
		// A ring of two clusters is their one link, point-to-point, so
		// the knob resolves away there.
		if cfg.Net.Topology != t && cfg.NumClusters > 2 {
			cfg.Net.Topology = t
			key = append(key, ",topology="+m.Topology...)
		}
	}
	if len(key) == 0 {
		return "", nil
	}
	key[0] = 'm'
	return "|" + string(key), nil
}

// Validate reports whether every knob of the override is within its
// bound.
func (m MachineSpec) Validate() error {
	if m == (MachineSpec{}) {
		return nil
	}
	cfg := pipeline.DefaultConfig(2)
	_, err := applyMachine(&cfg, &m)
	return err
}

// passOptions derives the pass options from the machine configuration
// being run: issue widths and communication cost come from the live
// config (machine override included), not from a hardcoded default
// machine.
func (r *resolved) passOptions(cfg *pipeline.Config) partition.Options {
	return partition.Options{
		NumVC:        r.numVC,
		NumClusters:  r.numVC,
		IssueInt:     cfg.Cluster.IssueInt,
		IssueFP:      cfg.Cluster.IssueFP,
		CommLatency:  cfg.Net.Latency + 1, // link latency + copy issue slot
		MaxChainLen:  r.maxChainLen,
		RegionMaxOps: r.regionMaxOps,
	}
}

// programKey is the annotated-program cache signature of the setup's
// pass under a machine configuration.
func (r *resolved) programKey(cfg *pipeline.Config) string {
	if r.pass == nil {
		return "clean"
	}
	o := r.passOptions(cfg)
	return fmt.Sprintf("%s|vc%d|ii%d|if%d|cl%d|ch%d|rg%d",
		r.pass.name, o.NumVC, o.IssueInt, o.IssueFP, o.CommLatency, o.MaxChainLen, o.RegionMaxOps)
}
