package pipeline

import (
	"errors"
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/cluster"
	"clustersim/internal/steer"
	"clustersim/internal/uarch"
)

// ErrCanceled is returned by Run when Config.Cancel fires mid-simulation.
var ErrCanceled = errors.New("pipeline: run canceled")

// Run simulates the whole trace and returns the metrics. The per-cycle
// stage order is: commit (sees last cycle's completions), writeback events
// (complete execution, deliver copies, wake consumers), issue, steer +
// dispatch, fetch. This ordering gives back-to-back issue of single-cycle
// dependence chains and a one-cycle dispatch-to-issue gap.
//
// A cycle that makes no progress repeats until something external to the
// stalled loop happens: an event lands, a cache fill completes, the fetch
// head becomes ready, or a run limit fires. Run fast-forwards over such
// repeats (skipIdle), charging every per-cycle counter as if each cycle
// had been simulated, so the results are identical to a cycle-by-cycle
// run; only the host time spent waiting on simulated DRAM goes away.
//
// The returned Metrics is detached from the core: it stays valid (and
// immutable) after the core is Reset for its next pooled run, so result
// caches may retain it indefinitely.
func (c *Core) Run() (*Metrics, error) {
	total := int64(len(c.tr.Uops))
	lastCommit := int64(0)
	lastCommitted := int64(0)
	var warmup *Metrics
	// steerRepeats reports the previous cycle was idle with a stalled
	// Steer call, which makes this cycle's stalled call a repeat.
	steerRepeats := false
	for c.committed < total {
		if c.cfg.Cancel != nil && c.cycle&0xfff == 0 {
			select {
			case <-c.cfg.Cancel:
				return c.detachMetrics(), ErrCanceled
			default:
			}
		}
		if c.cycle >= c.cfg.MaxCycles {
			c.m.MaxCyclesExceeded = true
			return c.detachMetrics(), fmt.Errorf("pipeline: exceeded %d cycles at %d/%d uops",
				c.cfg.MaxCycles, c.committed, total)
		}
		progress, retries := c.progress+c.mem.Prefetches, c.retries
		c.commit()
		c.processEvents()
		c.issue()
		c.dispatchStage()
		c.fetch()
		c.accountOccupancy(1)

		if c.committed > lastCommitted {
			lastCommitted = c.committed
			lastCommit = c.cycle
		} else if c.cycle-lastCommit > 500_000 {
			return c.detachMetrics(), fmt.Errorf("pipeline: no commit for 500000 cycles at cycle %d (%d/%d uops); head=%s",
				c.cycle, c.committed, total, c.describeHead())
		}
		if warmup == nil && c.cfg.WarmupUops > 0 && c.committed >= c.cfg.WarmupUops {
			snap := c.captureCounters()
			warmup = &snap
		}
		if c.progress+c.mem.Prefetches == progress {
			if idleSkip {
				c.skipIdle(c.retries-retries, steerRepeats, lastCommit)
			}
			steerRepeats = c.cycleStall == StallPolicy
		} else {
			steerRepeats = false
		}
		c.cycle++
	}
	if checkInvariants {
		c.checkDrained()
	}
	final := c.captureCounters()
	if warmup != nil {
		final = subtractCounters(final, *warmup)
	}
	final.PerCluster = c.m.PerCluster
	final.MaxCyclesExceeded = c.m.MaxCyclesExceeded
	c.m = final
	return c.detachMetrics(), nil
}

// skipIdle fast-forwards over the repeats of the idle cycle just
// simulated. An idle cycle changed nothing but per-cycle counters and the
// retry polls it re-armed for the next cycle, so every following cycle
// repeats it exactly until one of these can differ:
//
//   - an event other than those retries lands (the next non-empty wheel
//     slot or overflow cycle);
//   - a cache fill completes (mem.NextFill: a retried access may now get
//     an MSHR);
//   - the fetch head's frontend delay expires;
//   - MaxCycles, the no-commit detector or the next cancel poll is due.
//
// skipIdle jumps to the cycle before the earliest of those, charging the
// skipped cycles' stall counts, occupancy sums, histograms, event counts
// and (for a policy stall) steering work exactly as simulating them would
// have, and moves the retries into the first cycle it will simulate. It
// declines, leaving the cycle-by-cycle loop in charge, when a ready
// issue-queue or copy-queue entry or a completed ROB head is waiting (on a
// divider, a link or a store port — cheap to poll, easy to get wrong), when
// the next cycle already holds other events, and on the first cycle of a
// policy stall: only a repeated stalled Steer is guaranteed to change
// nothing but Complexity (see steer.Policy). The hierarchy's own attempt
// counters (MSHRFullEvents, per-cache lookup statistics) are not part of
// Metrics and count only the accesses actually made.
func (c *Core) skipIdle(retries uint64, steerRepeats bool, lastCommit int64) {
	if c.cycleStall == StallPolicy && !steerRepeats {
		return
	}
	if c.robLen > 0 && c.robHeadState().completed {
		return
	}
	for _, cl := range c.clusters {
		if cl.IntQ.NumReady()+cl.FPQ.NumReady()+cl.CopyQ.NumReady() > 0 {
			return
		}
	}
	t := c.cycle
	from := (t + 1) & c.wheelMask
	if uint64(len(c.wheel[from])) != retries {
		return
	}
	// until is the first cycle that must be simulated again.
	until := min(c.cfg.MaxCycles, lastCommit+500_001, c.mem.NextFill(t))
	if c.cfg.Cancel != nil {
		until = min(until, (t|0xfff)+1)
	}
	if c.fetchLen > 0 {
		if ready := c.fetchPipe[c.fetchHead&c.fetchMask].readyAt; ready > t {
			until = min(until, ready)
		}
	}
	if c.evOverflowLen > 0 {
		for cyc := range c.evOverflow {
			until = min(until, cyc)
		}
	}
	for cyc := t + 2; cyc < until && cyc <= t+c.wheelMask; cyc++ {
		if len(c.wheel[cyc&c.wheelMask]) > 0 {
			until = cyc
		}
	}
	k := until - t - 1
	if k <= 0 {
		return
	}

	c.countStall(k)
	if c.fetchStalled {
		c.m.FetchStallCycles += k
	}
	if c.cycleStall == StallPolicy {
		cx := c.policy.Complexity()
		cx.Add(c.steerDelta.Times(uint64(k)))
		c.steerCx = *cx
	}
	c.accountOccupancy(uint64(k))
	c.evStats.scheduled += int64(retries) * k
	c.evStats.skipped += k
	// The last skipped cycle would have re-armed the retries, in order,
	// behind whatever the first simulated cycle already holds.
	if to := until & c.wheelMask; to != from {
		if len(c.wheel[to]) == 0 {
			c.wheel[to], c.wheel[from] = c.wheel[from], c.wheel[to]
		} else {
			c.wheel[to] = append(c.wheel[to], c.wheel[from]...)
			c.wheel[from] = c.wheel[from][:0]
		}
	}
	c.cycle = until - 1
}

// detachMetrics copies the accumulated metrics off the core's reusable
// state: the copy and its PerCluster slice are freshly allocated, so a
// caller (or result cache) can retain them across a pooled Reset. The
// histograms pointer transfers as-is — Reset allocates fresh histograms
// rather than reusing them.
func (c *Core) detachMetrics() *Metrics {
	m := c.m
	m.PerCluster = append([]ClusterMetrics(nil), c.m.PerCluster...)
	return &m
}

// captureCounters snapshots every cumulative counter into a Metrics value
// (PerCluster excluded; it stays cumulative).
func (c *Core) captureCounters() Metrics {
	m := c.m
	m.Cycles = c.cycle
	m.Uops = c.committed
	m.LinkTransfers = c.net.Transfers
	m.LinkConflicts = c.net.Conflicts
	m.L1Hits = c.mem.L1Hits
	m.L2Hits = c.mem.L2Hits
	m.MemAccesses = c.mem.MemAccesses
	m.LSQForwards = c.lsq.ForwardHits
	m.PerCluster = nil
	return m
}

// subtractCounters returns a−b field-wise for the cumulative counters,
// yielding post-warmup metrics.
func subtractCounters(a, b Metrics) Metrics {
	out := a
	out.Cycles = a.Cycles - b.Cycles
	out.Uops = a.Uops - b.Uops
	out.Copies = a.Copies - b.Copies
	out.AllocStallCycles = a.AllocStallCycles - b.AllocStallCycles
	for i := range out.StallCycles {
		out.StallCycles[i] = a.StallCycles[i] - b.StallCycles[i]
	}
	out.FetchStallCycles = a.FetchStallCycles - b.FetchStallCycles
	out.Branches = a.Branches - b.Branches
	out.Mispredicts = a.Mispredicts - b.Mispredicts
	out.LinkTransfers = a.LinkTransfers - b.LinkTransfers
	out.LinkConflicts = a.LinkConflicts - b.LinkConflicts
	out.L1Hits = a.L1Hits - b.L1Hits
	out.L2Hits = a.L2Hits - b.L2Hits
	out.MemAccesses = a.MemAccesses - b.MemAccesses
	out.LSQForwards = a.LSQForwards - b.LSQForwards
	return out
}

// describeHead renders the ROB head for deadlock diagnostics.
func (c *Core) describeHead() string {
	if c.robLen == 0 {
		return "empty ROB"
	}
	st := c.robHeadState()
	return fmt.Sprintf("seq=%d op=%v cluster=%d completed=%v",
		st.seq, st.u.Static.Opcode, st.cluster, st.completed)
}

// schedule enqueues an event for the given cycle: into the wheel when the
// cycle is within the horizon, into the far-future overflow bucket
// otherwise. Events within one cycle drain in insertion order, and all
// overflow insertions for a cycle necessarily predate all wheel insertions
// for it (they were scheduled at least a horizon earlier), so draining
// overflow first preserves the exact order a single per-cycle list had.
func (c *Core) schedule(cycle int64, ev event) {
	c.evStats.scheduled++
	d := cycle - c.cycle
	if d <= 0 {
		// This cycle's drain already ran, so the event would never fire.
		// Construction rejects every zero latency, so only a bug gets here.
		panic(fmt.Sprintf("pipeline: event %v for seq %d scheduled at cycle %d, not after the current cycle %d",
			ev.kind, ev.seq, cycle, c.cycle))
	}
	if d > c.wheelMask {
		if c.evOverflow == nil {
			c.evOverflow = make(map[int64][]event)
		}
		c.evOverflow[cycle] = append(c.evOverflow[cycle], ev)
		c.evOverflowLen++
		c.evStats.overflowed++
		return
	}
	idx := cycle & c.wheelMask
	c.wheel[idx] = append(c.wheel[idx], ev)
}

// --- commit ----------------------------------------------------------------

func (c *Core) commit() {
	budget := c.cfg.CommitWidth
	for budget > 0 && c.robLen > 0 {
		st := c.robHeadState()
		if !st.completed {
			return
		}
		if st.u.Static.Opcode == uarch.OpStore {
			// Stores write the cache at retirement through the single L1
			// write port; port or MSHR pressure stalls commit.
			if !c.mem.L1().ReservePort(c.cycle, true) {
				return
			}
			if _, ok := c.mem.Access(c.cycle, st.u.Addr, true); !ok {
				return
			}
		}
		if st.u.IsMem() {
			c.lsq.Release(st.seq)
		}
		if st.u.Static.Dst != uarch.RegNone {
			c.freeValue(st.prevValue)
		}
		c.clusters[st.cluster].InFlight--
		st.live = false
		c.robHead++
		c.robLen--
		c.committed++
		c.progress++
		budget--
	}
}

// --- events (writeback / copy delivery / memory progress) -------------------

func (c *Core) processEvents() {
	if c.evOverflowLen > 0 {
		if over, ok := c.evOverflow[c.cycle]; ok {
			delete(c.evOverflow, c.cycle)
			c.evOverflowLen -= len(over)
			for i := range over {
				c.handleEvent(over[i])
			}
		}
	}
	idx := c.cycle & c.wheelMask
	evs := c.wheel[idx]
	if len(evs) == 0 {
		return
	}
	// Detach the slot while draining. In-window schedules during the drain
	// always land in other slots (a same-slot target would be exactly one
	// horizon ahead, which goes to overflow), so the backing array can be
	// put straight back for reuse.
	c.wheel[idx] = nil
	for i := range evs {
		c.handleEvent(evs[i])
	}
	c.wheel[idx] = evs[:0]
}

// handleEvent dispatches one drained event to its handler.
func (c *Core) handleEvent(ev event) {
	switch ev.kind {
	case evComplete:
		c.finish(ev.seq)
	case evAgen:
		c.progress++
		c.agen(ev.seq)
	case evMemTry:
		if st := c.uop(ev.seq); st != nil {
			c.memTry(st)
		}
	case evCopyArrive:
		c.progress++
		c.valueReadyIn(ev.seq, ev.aux)
		if c.copyInserted != nil {
			key := copyKey{ev.seq, ev.aux}
			if t0, ok := c.copyInserted[key]; ok {
				c.m.Histograms.CopyLatency.Observe(c.cycle - t0)
				delete(c.copyInserted, key)
			}
		}
	case evStoreData:
		if st := c.uop(ev.seq); st != nil {
			c.storeDataCheck(st)
		}
	}
}

// storeDataCheck completes a store once its data operand is readable in its
// cluster (the store-data half of the split store; the address half already
// ran). Polls once per cycle while the data is in flight.
func (c *Core) storeDataCheck(st *uopState) {
	if st.completed {
		return
	}
	if c.valueIsReadyIn(st.srcValues[0], st.cluster) {
		c.lsq.SetStoreData(st.seq)
		c.finish(st.seq)
		return
	}
	c.retry(evStoreData, st.seq)
}

// retry re-arms a poll of seq for the next cycle.
func (c *Core) retry(kind eventKind, seq int64) {
	c.retries++
	c.schedule(c.cycle+1, event{kind, seq, 0})
}

// finish completes execution of a micro-op.
func (c *Core) finish(seq int64) {
	st := c.uop(seq)
	if st == nil || st.completed {
		return
	}
	st.completed = true
	c.progress++
	if st.u.Static.Dst != uarch.RegNone {
		c.valueReadyIn(seq, st.cluster)
	}
	if st.mispredicted {
		// Branch resolved: release the frontend. The refill cost is the
		// fetch-to-dispatch depth of newly fetched micro-ops.
		c.fetchStalled = false
	}
}

// agen finishes address generation for a memory op.
func (c *Core) agen(seq int64) {
	st := c.uop(seq)
	if st == nil {
		return
	}
	c.lsq.SetAddress(seq, st.u.Addr)
	if st.u.Static.Opcode == uarch.OpStore {
		c.storeDataCheck(st)
		return
	}
	c.memTry(st)
}

// memTry advances a load through disambiguation and the cache.
func (c *Core) memTry(st *uopState) {
	if st.completed {
		return
	}
	switch c.lsq.ProbeLoad(st.seq, st.u.Addr) {
	case cache.LoadBlocked, cache.LoadWaitData:
		c.retry(evMemTry, st.seq)
	case cache.LoadForward:
		c.progress++
		c.schedule(c.cycle+1, event{evComplete, st.seq, 0})
	case cache.LoadAccess:
		if !c.mem.L1().ReservePort(c.cycle, false) {
			c.retry(evMemTry, st.seq)
			return
		}
		res, ok := c.mem.Access(c.cycle, st.u.Addr, false)
		if !ok {
			c.retry(evMemTry, st.seq)
			return
		}
		c.progress++
		c.schedule(res.Ready, event{evComplete, st.seq, 0})
	}
}

// --- issue -------------------------------------------------------------------

func (c *Core) issue() {
	for _, cl := range c.clusters {
		cl := cl
		for _, q := range [2]*cluster.IQ{cl.IntQ, cl.FPQ} {
			picked := q.SelectReady(0, func(e *cluster.Entry) bool {
				st := c.uop(e.Seq)
				return cl.DividerFree(st.u.Static.Opcode, c.cycle)
			})
			for _, e := range picked {
				st := c.uop(e.Seq)
				if checkInvariants {
					c.checkIssue(st)
				}
				c.startExec(st, cl)
			}
		}
		// Copies: one per cycle, gated on link bandwidth. The reservation
		// happens inside accept so refused copies stay queued.
		cl.CopyQ.SelectReady(0, func(e *cluster.Entry) bool {
			arr, ok := c.net.Reserve(c.cycle, cl.ID, e.Aux)
			if !ok {
				return false
			}
			if checkInvariants && !c.valueIsReadyIn(e.Seq, cl.ID) {
				panic(fmt.Sprintf("pipeline: copy of value %d issued in cluster %d before the value was ready there at cycle %d",
					e.Seq, cl.ID, c.cycle))
			}
			c.schedule(arr, event{evCopyArrive, e.Seq, e.Aux})
			c.progress++
			return true
		})
	}
}

// checkIssue enforces the dataflow-readiness rule for an issuing micro-op:
// every operand it waited on is readable in its cluster. A store's data
// operand is exempt, since the store-data half completes after issue.
func (c *Core) checkIssue(st *uopState) {
	for i, vseq := range st.srcValues {
		if i == 0 && st.u.Static.Opcode == uarch.OpStore {
			continue
		}
		if !c.valueIsReadyIn(vseq, st.cluster) {
			panic(fmt.Sprintf("pipeline: seq %d issued in cluster %d before operand value %d arrived there at cycle %d",
				st.seq, st.cluster, vseq, c.cycle))
		}
	}
}

// checkDrained enforces resource conservation after a completed run: every
// issue queue is empty; the live values are exactly the architectural
// registers' current values, with no entry still parked on them; and in
// each cluster the free registers plus those held by live values make up
// the whole register files.
func (c *Core) checkDrained() {
	held := make([][2]int, c.cfg.NumClusters) // per cluster: int, FP
	live := 0
	count := func(v *valueState) {
		if c.regVal[v.reg] != v.seq {
			panic(fmt.Sprintf("pipeline: value %d of %v outlived the run; the register now holds value %d",
				v.seq, v.reg, c.regVal[v.reg]))
		}
		v.waiters.Each(func(e *cluster.Entry) {
			panic(fmt.Sprintf("pipeline: seq %d still parked on value %d after the run", e.Seq, v.seq))
		})
		bank := 0
		if v.reg.IsFP() {
			bank = 1
		}
		for ci := range held {
			if v.allocMask&(1<<uint(ci)) != 0 {
				held[ci][bank]++
			}
		}
		live++
	}
	for i := range c.values {
		if v := &c.values[i]; v.live {
			count(v)
		}
	}
	for _, v := range c.valOverflow {
		count(v)
	}
	mapped := 0
	for _, seq := range c.regVal {
		if seq != initialValue {
			mapped++
		}
	}
	if live != mapped {
		panic(fmt.Sprintf("pipeline: %d live values for %d mapped registers after the run", live, mapped))
	}
	for ci, cl := range c.clusters {
		for _, q := range [3]*cluster.IQ{cl.IntQ, cl.FPQ, cl.CopyQ} {
			if q.Len() != 0 {
				panic(fmt.Sprintf("pipeline: IQ %s holds %d entries after the run", q.Name(), q.Len()))
			}
		}
		free := [2]int{cl.FreeRegs(uarch.IntReg(0)), cl.FreeRegs(uarch.FPReg(0))}
		size := [2]int{c.cfg.Cluster.IntRegs, c.cfg.Cluster.FPRegs}
		for bank := range size {
			if free[bank]+held[ci][bank] != size[bank] {
				panic(fmt.Sprintf("pipeline: cluster %d bank %d: %d free + %d held by live values, want %d registers",
					ci, bank, free[bank], held[ci][bank], size[bank]))
			}
		}
	}
}

// startExec schedules the completion of an issued micro-op.
func (c *Core) startExec(st *uopState, cl *cluster.Cluster) {
	op := st.u.Static.Opcode
	c.progress++
	cl.ReserveDivider(op, c.cycle)
	switch {
	case op.IsMem():
		c.schedule(c.cycle+int64(op.Latency()), event{evAgen, st.seq, 0})
	default:
		c.schedule(c.cycle+int64(op.Latency()), event{evComplete, st.seq, 0})
	}
}

// --- steer + dispatch --------------------------------------------------------

func (c *Core) dispatchStage() {
	budget := c.cfg.SteerWidth
	reason := StallNone
	for budget > 0 && c.fetchLen > 0 {
		slot := &c.fetchPipe[c.fetchHead&c.fetchMask]
		if slot.readyAt > c.cycle {
			break
		}
		if !slot.steered {
			d := c.policy.Steer(steerCtx{c}, slot.u)
			if d.Stall {
				reason = StallPolicy
				cx := *c.policy.Complexity()
				c.steerDelta = cx.Sub(c.steerCx)
				c.steerCx = cx
				break
			}
			if d.Cluster < 0 || d.Cluster >= c.cfg.NumClusters {
				panic(fmt.Sprintf("pipeline: policy %s chose cluster %d of %d",
					c.policy.Name(), d.Cluster, c.cfg.NumClusters))
			}
			slot.steered = true
			slot.cluster = d.Cluster
			c.progress++
		}
		if r := c.tryDispatch(slot); r != StallNone {
			reason = r
			break
		}
		c.fetchHead++
		c.fetchLen--
		c.progress++
		budget--
	}
	c.cycleStall = reason
	c.countStall(1)
}

// countStall charges n cycles of the current cycle's dispatch stall.
func (c *Core) countStall(n int64) {
	if r := c.cycleStall; r != StallNone {
		c.m.StallCycles[r] += n
		if r == StallPolicy || r == StallIQ {
			c.m.AllocStallCycles += n
		}
	}
}

// tryDispatch allocates all resources for the steered micro-op, or reports
// the first missing resource without side effects.
func (c *Core) tryDispatch(slot *fetchSlot) StallReason {
	u := slot.u
	ci := slot.cluster
	cl := c.clusters[ci]
	class := u.Static.Opcode.Class()

	if c.robLen >= c.cfg.ROBSize {
		return StallROB
	}
	if cl.QueueFor(class).Full() {
		return StallIQ
	}
	if u.IsMem() && c.lsq.Full() {
		return StallLSQ
	}

	// Plan operand copies: a source value not present (nor en route) in the
	// target cluster needs an explicit copy micro-op in its home cluster.
	copies := c.planCopies[:0]
	needRegInt, needRegFP := 0, 0
	if u.Static.Dst != uarch.RegNone {
		if u.Static.Dst.IsFP() {
			needRegFP++
		} else {
			needRegInt++
		}
	}
	srcs := [2]uarch.Reg{u.Static.Src1, u.Static.Src2}
	var vseqs [2]int64
	for i, src := range srcs {
		vseqs[i] = initialValue
		if src == uarch.RegNone {
			continue
		}
		vseq := c.regVal[src]
		vseqs[i] = vseq
		if vseq == initialValue {
			continue
		}
		v := c.value(vseq)
		if v == nil {
			continue
		}
		bit := uint32(1) << uint(ci)
		if v.locMask&bit == 0 {
			dup := false
			for _, pc := range copies {
				if pc.vseq == vseq {
					dup = true
					break
				}
			}
			if !dup {
				home := c.clusters[v.home]
				// Each planned copy needs a copy-queue slot in the home
				// cluster and a register in the target cluster.
				pendingToHome := 0
				for _, pc := range copies {
					if pc.home == v.home {
						pendingToHome++
					}
				}
				if home.CopyQ.Len()+pendingToHome >= home.CopyQ.Cap() {
					c.planCopies = copies[:0]
					return StallCopyQ
				}
				copies = append(copies, plannedCopy{vseq, v.home, src})
				if src.IsFP() {
					needRegFP++
				} else {
					needRegInt++
				}
			}
		}
	}
	c.planCopies = copies[:0]
	if needRegInt > cl.FreeRegs(uarch.IntReg(0)) || needRegFP > cl.FreeRegs(uarch.FPReg(0)) {
		if len(copies) > 0 {
			return StallCopyRegs
		}
		return StallRegs
	}

	// All resources available: perform the dispatch. Each new entry parks
	// on the values it waits for; their arrival wakes it.
	seq := slot.seq
	for _, pc := range copies {
		v := c.value(pc.vseq)
		pending := 0
		if v.readyMask&(1<<uint(pc.home)) == 0 {
			pending = 1
		}
		e := c.clusters[pc.home].CopyQ.Insert(pc.vseq, ci, pending)
		if e == nil {
			panic("pipeline: copy queue insert failed after capacity check")
		}
		if pending > 0 {
			v.waiters.Park(e, 0)
		}
		v.locMask |= 1 << uint(ci)
		v.allocMask |= 1 << uint(ci)
		cl.AllocReg(pc.reg)
		c.m.Copies++
		c.m.PerCluster[pc.home].CopiesInserted++
		if c.copyInserted != nil {
			c.copyInserted[copyKey{pc.vseq, ci}] = c.cycle
		}
	}
	// The entry waits for each distinct operand value not yet readable in
	// its cluster. A split store's entry waits only for the address operand
	// (Src2); the data half completes separately after issue, as real
	// STA/STD micro-op pairs do.
	isStore := u.Static.Opcode == uarch.OpStore
	var waits [2]*valueState
	pending := 0
	for i, vseq := range vseqs {
		if vseq == initialValue || (isStore && i == 0) {
			continue
		}
		v := c.value(vseq)
		if v == nil || v.readyMask&(1<<uint(ci)) != 0 || (pending > 0 && waits[0] == v) {
			continue
		}
		waits[pending] = v
		pending++
	}
	e := cl.QueueFor(class).Insert(seq, 0, pending)
	if e == nil {
		panic("pipeline: IQ insert failed after capacity check")
	}
	for i, v := range waits[:pending] {
		v.waiters.Park(e, i)
	}
	if u.IsMem() {
		if !c.lsq.Allocate(seq, isStore) {
			panic("pipeline: LSQ allocate failed after capacity check")
		}
	}
	if want := c.robHead + int64(c.robLen); seq != want {
		panic(fmt.Sprintf("pipeline: out-of-order dispatch: seq %d, ROB tail %d", seq, want))
	}
	st := &c.uops[seq&c.uopMask]
	*st = uopState{
		seq: seq, u: u, cluster: ci, live: true,
		mispredicted: slot.mispred, prevValue: initialValue,
		srcValues: vseqs,
	}
	if u.Static.Dst != uarch.RegNone {
		cl.AllocReg(u.Static.Dst)
		st.prevValue = c.regVal[u.Static.Dst]
		c.regVal[u.Static.Dst] = seq
		c.newValue(seq, u.Static.Dst, ci)
	}
	c.robLen++
	cl.InFlight++
	c.m.PerCluster[ci].Dispatched++
	return StallNone
}

// --- fetch ---------------------------------------------------------------

func (c *Core) fetch() {
	if c.fetchStalled {
		c.m.FetchStallCycles++
		return
	}
	budget := c.cfg.FetchWidth
	for budget > 0 && c.nextFetch < len(c.tr.Uops) && c.fetchLen < c.fetchCap {
		u := &c.tr.Uops[c.nextFetch]
		slot := &c.fetchPipe[(c.fetchHead+int64(c.fetchLen))&c.fetchMask]
		*slot = fetchSlot{
			seq: c.nextSeq, u: u,
			readyAt: c.cycle + int64(c.cfg.FetchToDispatch),
		}
		stop := false
		if u.IsBranch() {
			c.m.Branches++
			predicted := c.bp.predictAndUpdate(u.PC, u.Taken)
			if predicted != u.Taken {
				c.m.Mispredicts++
				slot.mispred = true
				c.fetchStalled = true
				stop = true
			}
		}
		c.fetchLen++
		c.nextFetch++
		c.nextSeq++
		c.progress++
		budget--
		if stop {
			break
		}
	}
}

// accountOccupancy integrates issue-queue occupancy for utilization stats
// over n cycles of the current machine state.
func (c *Core) accountOccupancy(n uint64) {
	for i, cl := range c.clusters {
		pc := &c.m.PerCluster[i]
		pc.OccupancySum += n * uint64(cl.Occupancy())
		pc.IntOccSum += n * uint64(cl.IntQ.Len())
		pc.FPOccSum += n * uint64(cl.FPQ.Len())
		pc.IntIssued = cl.IntQ.Issued
		pc.FPIssued = cl.FPQ.Issued
		pc.CopyIssued = cl.CopyQ.Issued
		if h := c.m.Histograms; h != nil {
			h.IntIQ.ObserveN(int64(cl.IntQ.Len()), n)
			h.FPIQ.ObserveN(int64(cl.FPQ.Len()), n)
			h.CopyQ.ObserveN(int64(cl.CopyQ.Len()), n)
		}
	}
	if h := c.m.Histograms; h != nil {
		h.ROB.ObserveN(int64(c.robLen), n)
	}
}

// ComplexityOf returns the policy's steering-logic accounting.
func (c *Core) ComplexityOf() steer.Complexity { return *c.policy.Complexity() }
