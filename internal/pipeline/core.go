package pipeline

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/cluster"
	"clustersim/internal/interconnect"
	"clustersim/internal/stats"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// initialValue is the sequence number denoting an architectural initial
// value: ready in every cluster, occupying no physical register.
const initialValue int64 = -1

// uopState is the in-flight state of one dynamic micro-op. States live in a
// ring buffer indexed by seq mod window, so the struct carries its own seq
// and liveness to disambiguate slot reuse. Its fields are ordered to pack
// it into 64 bytes, which dispatch writes with plain moves.
type uopState struct {
	seq int64
	u   *trace.Uop
	// prevValue is the value the destination register held before this op
	// (freed when this op commits).
	prevValue int64
	// srcValues are the operand value tags consumed (for store-data
	// bookkeeping and debugging).
	srcValues [2]int64
	// A store whose data operand is not yet readable in its cluster parks
	// on the operand's value until it arrives there (parkStore):
	// parkNext links the next store parked on that value (its seq plus
	// one; 0 ends the list), and parkKey is the store's drain key (see
	// processEvents).
	parkNext, parkKey int64
	cluster           int32

	live      bool
	completed bool
	// mispredicted marks a conditional branch whose prediction was wrong;
	// its completion releases the fetch stall.
	mispredicted bool
}

// valueState tracks one produced register value across clusters, and the
// issue-queue entries parked on it until it arrives in theirs. Values
// normally live in a ring window indexed by seq; the rare value that
// outlives the window (a register not overwritten for a whole window of
// dispatches) is evicted to an overflow map, waiters and all: the wait
// list is a head pointer into links the waiting entries hold.
type valueState struct {
	seq  int64
	reg  uarch.Reg
	home int
	live bool
	// locMask marks clusters where the value is or will become available
	// (home plus any copy destinations, pending or arrived).
	locMask uint32
	// readyMask marks clusters where the value is readable now.
	readyMask uint32
	// allocMask marks clusters where a physical register is held.
	allocMask uint32
	// waiters are the entries parked on the value in clusters where it is
	// not readable yet — a consumer in its own cluster, a copy in the
	// value's home; valueReadyIn wakes and unlinks a cluster's share.
	waiters cluster.WaitList
	// stores heads the list of stores parked on the value as their data
	// operand (seq plus one; 0 when none), linked through
	// uopState.parkNext; valueReadyIn wakes a cluster's share.
	stores int64
}

// event is a scheduled micro-architectural occurrence.
type event struct {
	kind eventKind
	seq  int64
	// aux is a copy arrival's destination cluster. An event scheduled by
	// another event's handler carries that handler's drain key instead
	// (copy arrivals are only scheduled at issue).
	aux int64
}

type eventKind uint8

const (
	evComplete   eventKind = iota // execution finishes
	evAgen                        // load/store address generated
	evMemTry                      // load retries disambiguation/cache access
	evCopyArrive                  // copy lands in destination cluster
	evStoreData                   // store re-polls its data operand (storeDataPolls only)
	numEventKinds
)

// dueStore is a woken store waiting to complete at its drain key.
type dueStore struct {
	key, seq int64
}

// fetchSlot is one frontend-pipe entry.
type fetchSlot struct {
	seq     int64
	u       *trace.Uop
	readyAt int64
	// mispred marks a conditional branch the predictor got wrong.
	mispred bool
	// steered caches a sticky steering decision across dispatch retries so
	// policy state is not perturbed by resource stalls.
	steered bool
	cluster int
}

// plannedCopy is one operand copy the dispatch stage intends to insert: the
// value, its home cluster, and the architectural register (for free-list
// accounting in the target cluster).
type plannedCopy struct {
	vseq int64
	home int
	reg  uarch.Reg
}

// eventWheelStats counts event-wheel activity; the bounded-memory and
// idle-skip tests read it, and it is cheap enough to keep always on.
type eventWheelStats struct {
	// scheduled counts all scheduled events, including the retries that
	// skipIdle charges for the cycles it skips; overflowed counts the
	// subset that landed beyond the wheel horizon (far-future overflow
	// bucket).
	scheduled, overflowed int64
	// drained counts the events actually handled, by kind.
	drained [numEventKinds]int64
	// skipped counts the idle cycles fast-forwarded rather than simulated.
	skipped int64
}

// Core is one simulated machine instance. It is single-goroutine; run many
// cores in parallel for experiment sweeps.
//
// The per-cycle working set is held in dense, index-addressed structures so
// the steady-state loop allocates nothing: in-flight micro-op state lives
// in a ring indexed by seq mod window (in-order dispatch and commit keep
// the live range within ROB size), value state in a larger ring with a
// small overflow map for values that outlive it, scheduled events in a
// fixed-horizon wheel of reusable slices, and the ROB itself is just the
// contiguous live seq range [robHead, robHead+robLen).
type Core struct {
	cfg    Config
	policy steer.Policy
	tr     *trace.Trace
	// shape is cfg.Shape() frozen at construction: the structural
	// fingerprint every Reset config must match, since ring and wheel
	// sizes were derived from it.
	shape Config

	cycle     int64
	nextFetch int
	nextSeq   int64

	// fetchPipe is a ring of fetched-but-not-dispatched micro-ops, bounded
	// by fetchCap (width × depth + steer backlog).
	fetchPipe []fetchSlot
	fetchMask int64
	fetchHead int64
	fetchLen  int
	fetchCap  int
	// fetchStalled marks fetch frozen on an unresolved misprediction.
	fetchStalled bool

	// uops is the in-flight micro-op window: a ring indexed by seq&uopMask.
	// Dispatch and commit are both in program order, so the live entries
	// are exactly the ROB contents — seqs [robHead, robHead+robLen).
	uops    []uopState
	uopMask int64
	robHead int64
	robLen  int

	regVal [uarch.NumRegs]int64
	// values is the value window ring indexed by seq&valMask; valOverflow
	// holds the rare values still live when their slot is reclaimed.
	values      []valueState
	valMask     int64
	valOverflow map[int64]*valueState

	clusters []*cluster.Cluster
	net      *interconnect.Network
	lsq      *cache.LSQ
	mem      *cache.Hierarchy
	bp       *gshare

	// wheel is the event wheel: wheel[cycle&wheelMask] holds the events due
	// that cycle, with backing arrays reused after draining. Events beyond
	// the horizon go to the evOverflow bucket (evOverflowLen counts them so
	// the per-cycle check is a plain integer compare).
	wheel         [][]event
	wheelMask     int64
	evOverflow    map[int64][]event
	evOverflowLen int
	evStats       eventWheelStats

	// Drain keys order the events a cycle's drain schedules for the next
	// cycle, and the stores parked on a value (see processEvents).
	// slotA and slotB split the next cycle's slot into the events
	// scheduled before this cycle's drain, during it, and after it;
	// aKeys and cKeys are the running key counters of regions A and C.
	// evKey is the key of the event being handled (what it hands on to
	// the events it schedules and the stores it parks), and a store it
	// wakes is due in this drain if its key is above evDueAbove.
	slotA, slotB      int
	aKeys, cKeys      int64
	evKey, evDueAbove int64
	// dueNow holds the woken stores that complete in this cycle's drain,
	// by descending key; dueNext those that complete in the next one.
	dueNow, dueNext []dueStore

	// planCopies is a dispatch-stage scratch buffer, reused across cycles
	// so steering/dispatch never allocates.
	planCopies []plannedCopy

	// copyInserted records copy-queue insertion cycles for the optional
	// copy-latency histogram (nil unless TrackHistograms).
	copyInserted map[copyKey]int64

	// progress counts every change that can let a later cycle do
	// something new: commits, completions, address and value arrivals,
	// successful memory accesses, issues, steering decisions, dispatches
	// and fetches. A cycle that leaves it (and the hierarchy's prefetch
	// count) unchanged is idle, and skipIdle may fast-forward past its
	// repeats. retries counts the load polls re-armed for the next cycle
	// (and, with storeDataPolls, the store-data polls).
	progress, retries uint64
	// cycleStall is the dispatch stall reason of the current cycle.
	cycleStall StallReason
	// steerCx is the policy's Complexity after its last stalled Steer;
	// steerDelta is what that call added over the stalled call before it.
	steerCx, steerDelta steer.Complexity

	committed int64
	m         Metrics
}

// copyKey identifies an in-flight copy: the value and its destination.
type copyKey struct {
	seq int64
	dst int
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// maxWheelHorizon caps the event wheel's slot count. It is a variable
// only so tests can raise it to run an overflow-free control of the same
// configuration; simulation code treats it as a constant.
var maxWheelHorizon = 4096

// idleSkip enables fast-forwarding over idle cycles (see skipIdle). It is
// a variable only so tests can run the cycle-by-cycle reference of the
// same machine; simulation code treats it as a constant.
var idleSkip = true

// storeDataPolls makes a store whose data operand is not ready re-poll it
// every cycle instead of parking on its value: the reference the parking
// is proven exact against. It is a variable only so tests can run that
// reference; simulation code treats it as a constant.
var storeDataPolls = false

// checkInvariants makes the core verify, as it runs, the dataflow-readiness
// rule at issue (see checkIssue), in-order single commits, the drain-key
// order and the readiness of woken stores' data, and, after a completed
// run, resource conservation (see checkDrained). It is a variable only so
// tests can switch the checks on; simulation code treats it as a constant.
var checkInvariants = false

// wheelHorizon sizes the event wheel to cover every latency the machine
// can schedule in one hop — the memory hierarchy's worst case (L2 miss to
// DRAM) dominates. Anything beyond (e.g. an ablation with an extreme
// memory latency) falls into the overflow bucket, which is correct but
// slower, so the horizon errs generously — while staying capped so an
// extreme configuration costs overflow lookups instead of memory.
func wheelHorizon(cfg *Config) int {
	worst := cfg.Mem.L1.HitLatency + cfg.Mem.L2.HitLatency + cfg.Mem.MemLatency
	if net := cfg.Net.Latency * cfg.NumClusters; net > worst {
		worst = net
	}
	h := nextPow2(worst + 2)
	if h < 64 {
		h = 64
	}
	if h > maxWheelHorizon {
		h = maxWheelHorizon
	}
	return h
}

// NewCore builds a machine for the given trace and policy.
func NewCore(cfg Config, pol steer.Policy, tr *trace.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200_000_000
	}
	net, err := interconnect.New(cfg.Net)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	fetchCap := cfg.FetchWidth * (cfg.FetchToDispatch + 4)
	c := &Core{
		cfg:       cfg,
		policy:    pol,
		tr:        tr,
		shape:     cfg.Shape(),
		fetchPipe: make([]fetchSlot, nextPow2(fetchCap)),
		fetchCap:  fetchCap,
		uops:      make([]uopState, nextPow2(cfg.ROBSize)),
		values:    make([]valueState, nextPow2(2*cfg.ROBSize)),
		wheel:     make([][]event, wheelHorizon(&cfg)),
		net:       net,
		lsq:       cache.NewLSQ(cfg.LSQSize),
		mem:       mem,
		bp:        newGShare(cfg.BPredBits),
	}
	c.fetchMask = int64(len(c.fetchPipe) - 1)
	c.uopMask = int64(len(c.uops) - 1)
	c.valMask = int64(len(c.values) - 1)
	c.wheelMask = int64(len(c.wheel) - 1)
	// Seed every wheel slot with a small chunk of one flat backing array:
	// the average cycle carries a handful of events, so most slots never
	// regrow and per-run warm-up allocation stays O(1) instead of O(slots).
	const slotSeedCap = 8
	backing := make([]event, slotSeedCap*len(c.wheel))
	for i := range c.wheel {
		c.wheel[i] = backing[i*slotSeedCap : i*slotSeedCap : (i+1)*slotSeedCap]
	}
	for i := 0; i < cfg.NumClusters; i++ {
		c.clusters = append(c.clusters, cluster.New(i, cfg.Cluster))
	}
	for r := range c.regVal {
		c.regVal[r] = initialValue
	}
	c.m.PerCluster = make([]ClusterMetrics, cfg.NumClusters)
	if cfg.TrackHistograms {
		c.m.Histograms = &OccupancyHistograms{
			ROB:         stats.NewHistogram(cfg.ROBSize),
			IntIQ:       stats.NewHistogram(cfg.Cluster.IQInt),
			FPIQ:        stats.NewHistogram(cfg.Cluster.IQFP),
			CopyQ:       stats.NewHistogram(cfg.Cluster.IQCopy),
			CopyLatency: stats.NewHistogram(128),
		}
		c.copyInserted = make(map[copyKey]int64)
	}
	pol.Reset()
	return c, nil
}

// --- windowed state access -------------------------------------------------

// uop returns the in-flight state for seq, or nil if it already committed.
func (c *Core) uop(seq int64) *uopState {
	st := &c.uops[seq&c.uopMask]
	if st.live && st.seq == seq {
		return st
	}
	return nil
}

// robHeadState returns the oldest in-flight micro-op (ROB head).
func (c *Core) robHeadState() *uopState {
	return &c.uops[c.robHead&c.uopMask]
}

// value returns the live value state for seq, or nil if it was freed. The
// ring slot is the hot path; the overflow map holds only values that
// outlived the window.
func (c *Core) value(seq int64) *valueState {
	v := &c.values[seq&c.valMask]
	if v.live && v.seq == seq {
		return v
	}
	if c.valOverflow != nil {
		if ov, ok := c.valOverflow[seq]; ok {
			return ov
		}
	}
	return nil
}

// newValue claims the window slot for seq. A slot still occupied by a live
// out-of-window value (its register was not overwritten for a whole window
// of dispatches) evicts that value to the overflow map first, its wait
// list with it.
func (c *Core) newValue(seq int64, reg uarch.Reg, home int) *valueState {
	v := &c.values[seq&c.valMask]
	if v.live {
		if c.valOverflow == nil {
			c.valOverflow = make(map[int64]*valueState)
		}
		old := *v
		c.valOverflow[old.seq] = &old
	}
	*v = valueState{
		seq: seq, reg: reg, home: home, live: true,
		locMask: 1 << uint(home), allocMask: 1 << uint(home),
	}
	return v
}

// --- steering context ------------------------------------------------------

// steerCtx adapts the core to the steer.Context interface.
type steerCtx struct{ c *Core }

// NumClusters implements steer.Context.
func (s steerCtx) NumClusters() int { return s.c.cfg.NumClusters }

// Occupancy implements steer.Context.
func (s steerCtx) Occupancy(ci int) int { return s.c.clusters[ci].Occupancy() }

// InFlight implements steer.Context.
func (s steerCtx) InFlight(ci int) int { return s.c.clusters[ci].InFlight }

// HasSpace implements steer.Context.
func (s steerCtx) HasSpace(ci int, class uarch.Class) bool {
	return !s.c.clusters[ci].QueueFor(class).Full()
}

// ValueClusters implements steer.Context.
func (s steerCtx) ValueClusters(r uarch.Reg) uint32 {
	seq := s.c.regVal[r]
	if seq == initialValue {
		return (1 << uint(s.c.cfg.NumClusters)) - 1
	}
	if v := s.c.value(seq); v != nil {
		return v.locMask
	}
	return (1 << uint(s.c.cfg.NumClusters)) - 1
}

// --- value helpers ---------------------------------------------------------

// valueReadyIn marks value seq readable in cluster ci, and wakes and
// unlinks the entries and stores parked on it there.
func (c *Core) valueReadyIn(seq int64, ci int) {
	v := c.value(seq)
	if v == nil {
		panic(fmt.Sprintf("pipeline: ready for dead value %d", seq))
	}
	bit := uint32(1) << uint(ci)
	if v.readyMask&bit != 0 {
		return
	}
	v.readyMask |= bit
	v.waiters.WakeIn(ci)
	if v.stores != 0 {
		c.wakeStores(v, ci)
	}
}

// parkStore parks a store whose data operand is not readable in its
// cluster on the operand's value, at the drain key of the event handling
// it: the place its per-cycle poll would hold among the events each later
// drain schedules for the cycle after.
func (c *Core) parkStore(st *uopState) {
	v := c.value(st.srcValues[0])
	st.parkKey = c.evKey
	st.parkNext, v.stores = v.stores, st.seq+1
}

// wakeStores unlinks the stores parked on v in cluster ci and schedules
// their completion where their poll would have found the data: in this
// drain if the poll comes after the event handling now (its key is above
// evDueAbove), else in the next drain.
func (c *Core) wakeStores(v *valueState, ci int) {
	for p := &v.stores; *p != 0; {
		st := &c.uops[(*p-1)&c.uopMask]
		if int(st.cluster) != ci {
			p = &st.parkNext
			continue
		}
		*p, st.parkNext = st.parkNext, 0
		d := dueStore{st.parkKey, st.seq}
		if d.key <= c.evDueAbove {
			c.dueNext = append(c.dueNext, d)
			continue
		}
		// Keep dueNow sorted by descending key: its last entry is next.
		c.dueNow = append(c.dueNow, d)
		for i := len(c.dueNow) - 1; i > 0 && c.dueNow[i-1].key < d.key; i-- {
			c.dueNow[i], c.dueNow[i-1] = c.dueNow[i-1], c.dueNow[i]
		}
	}
}

// valueIsReadyIn reports whether the operand value is readable in cluster ci.
func (c *Core) valueIsReadyIn(seq int64, ci int) bool {
	if seq == initialValue {
		return true
	}
	v := c.value(seq)
	if v == nil {
		return true // producer already committed and freed: architecturally visible
	}
	return v.readyMask&(1<<uint(ci)) != 0
}

// freeValue releases every physical register the value holds.
func (c *Core) freeValue(seq int64) {
	if seq == initialValue {
		return
	}
	v := c.value(seq)
	if v == nil {
		return
	}
	for ci := 0; ci < c.cfg.NumClusters; ci++ {
		if v.allocMask&(1<<uint(ci)) != 0 {
			c.clusters[ci].FreeReg(v.reg)
		}
	}
	if ring := &c.values[seq&c.valMask]; ring == v {
		ring.live = false
	} else {
		delete(c.valOverflow, seq)
	}
}

// Shape returns the structural fingerprint the core was built for.
func (c *Core) Shape() Config { return c.shape }

// Reset rewinds the core to post-construction state for a new run with the
// given configuration, policy and trace — without reallocating rings,
// freelists, the event wheel, caches or cluster state. The configuration
// must have the same Shape the core was built with (ring and wheel sizes
// were derived from it); per-run fields (MaxCycles, WarmupUops, Cancel) may
// differ freely. A reset core produces byte-identical results to a freshly
// constructed one.
func (c *Core) Reset(cfg Config, pol steer.Policy, tr *trace.Trace) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Shape() != c.shape {
		return fmt.Errorf("pipeline: Reset config shape differs from construction shape")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200_000_000
	}
	c.cfg = cfg
	c.policy = pol
	c.tr = tr

	c.cycle, c.nextFetch, c.nextSeq = 0, 0, 0
	c.fetchHead, c.fetchLen = 0, 0
	c.fetchStalled = false
	// A canceled or aborted run leaves live entries behind, and the next
	// run's seqs restart at zero — so every ring slot must be scrubbed, not
	// just the nominally-live range.
	for i := range c.fetchPipe {
		c.fetchPipe[i] = fetchSlot{}
	}
	for i := range c.uops {
		c.uops[i] = uopState{}
	}
	c.robHead, c.robLen = 0, 0
	for r := range c.regVal {
		c.regVal[r] = initialValue
	}
	clear(c.values)
	clear(c.valOverflow)

	for _, cl := range c.clusters {
		cl.Reset()
	}
	c.net.Reset()
	c.lsq.Reset()
	c.mem.Reset()
	c.bp.reset()

	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	clear(c.evOverflow)
	c.evOverflowLen = 0
	c.evStats = eventWheelStats{}
	c.slotA, c.slotB = 0, 0
	c.aKeys, c.cKeys = 0, 0
	c.evKey, c.evDueAbove = 0, 0
	c.dueNow, c.dueNext = c.dueNow[:0], c.dueNext[:0]

	c.planCopies = c.planCopies[:0]

	c.progress, c.retries = 0, 0
	c.cycleStall = StallNone
	c.steerCx, c.steerDelta = steer.Complexity{}, steer.Complexity{}

	c.committed = 0
	// The previous run's detached metrics may still be referenced by
	// callers, so PerCluster is the one piece of metrics state the core
	// reuses: zero it in place. Histograms are per-run heap objects.
	per := c.m.PerCluster
	for i := range per {
		per[i] = ClusterMetrics{}
	}
	c.m = Metrics{PerCluster: per}
	if cfg.TrackHistograms {
		c.m.Histograms = &OccupancyHistograms{
			ROB:         stats.NewHistogram(cfg.ROBSize),
			IntIQ:       stats.NewHistogram(cfg.Cluster.IQInt),
			FPIQ:        stats.NewHistogram(cfg.Cluster.IQFP),
			CopyQ:       stats.NewHistogram(cfg.Cluster.IQCopy),
			CopyLatency: stats.NewHistogram(128),
		}
		if c.copyInserted == nil {
			c.copyInserted = make(map[copyKey]int64)
		} else {
			clear(c.copyInserted)
		}
	} else {
		c.copyInserted = nil
	}
	pol.Reset()
	return nil
}

// Release drops the references a pooled core must not pin between runs:
// the trace (often a large shared object), the policy, and the cancel
// channel. Call before parking the core in a pool.
func (c *Core) Release() {
	c.tr = nil
	c.policy = nil
	c.cfg.Cancel = nil
}
