// Batched connectivity replay: one pass over the behavior event trace
// re-times K connectivity architectures simultaneously.
//
// ReplayBatch is the one connectivity replayer of the production
// paths; a single candidate is a one-member batch. Replay (replay.go)
// is the test reference it is held to: one architecture, one pass, no
// contention analysis. When the exploration holds many candidates for
// the same captured behavior — the common case, since ConEx enumerates
// hundreds of connectivity mappings per memory architecture — walking
// the trace once per candidate re-decodes identical event streams K
// times.
// ReplayBatch decodes each event exactly once into an op record and
// applies it to every architecture in an inner loop over dense
// struct-of-arrays state: per-(arch,channel) component, cycle and
// energy tables live in flat arrays indexed a*numChannels+ch,
// per-(arch,module) prefetch state in flat arrays indexed
// a*numModules+m.
//
// Two structural facts make the batch pass much cheaper than K
// reference replays while staying bit-exact.
//
// Contention analysis. The replayed CPU is blocking: it has one
// outstanding access, and every later request — the next leg of the
// same access, its background prefetch, the next access — asks at or
// after the cycle the current demand leg completes. A demand leg's
// reservation ends by then, and a scheduler search only looks at
// cycles from the asking one on, so demand reservations are invisible
// to every later request. Only background prefetch legs, which run
// ahead of the CPU, can collide with a later request. Hence:
//
//   - A cluster that never carries prefetch traffic grants every
//     request at its asking cycle with zero conflicts. The batch
//     replayer builds no scheduler for it and only counts the issues.
//     Real schedulers exist only for clusters that back a prefetching
//     module (or the L2<->DRAM cluster of a prefetching system, which
//     prefetch misses forward to).
//   - On such a scheduler a demand leg is granted (Scheduler.Grant)
//     but not reserved; a prefetch leg is granted and reserved
//     (EarliestIssue). The one timing whose reservation outlasts its
//     leg — a zero-beat, zero-arbitration, non-pipelined bus that
//     moves data in no cycles but holds its arbiter for one — is
//     caught by a run-time check and reserved.
//   - The horizon. A scheduler tracks one past its last reserved
//     cycle; with demand legs unreserved, that is where the last
//     prefetch ends. A request at or after it is granted at once, with
//     no bitmap search. A demand leg that would be granted so without
//     sliding the window (Scheduler.Idle) does not call the scheduler
//     at all; the replayer counts its issue, so SchedIssues stays
//     exact.
//
// Shared timing tables. Transfer-cycle, transfer-energy and
// reservation-stage tables depend only on a component's timing
// parameters, not on which architecture uses it, so architectures
// assigning the same library component share one set of dense tables
// for the whole batch instead of rebuilding ~(MaxBytes × MaxDRAMLat)
// stage lists per replay.
//
// Events that reduce to a pure on-chip hit (no stall, no backing
// traffic, non-prefetching module) are classified once per batch and
// handled by a short fast path on uncontended architectures.
//
// The reference Replay and the one-phase Simulator reserve every leg
// through EarliestIssue; they are the oracles the differential tests
// (TestReplayBatchMatchesReplay, FuzzReplayBatchMatchesSimulator) hold
// this path to.
//
// Energy is accumulated with exactly the same sequence of float64
// additions as Replay — shared tables hold the very values
// TransferEnergy returns — so results are bit-identical, not merely
// close.
package sim

import (
	"fmt"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/rtable"
)

// checkReplayArch validates a connectivity architecture against a
// behavior trace, exactly as Replay requires.
func checkReplayArch(bt *BehaviorTrace, connArch *connect.Arch) error {
	if err := connArch.Validate(); err != nil {
		return err
	}
	if len(connArch.Channels) != len(bt.Channels) {
		return fmt.Errorf("sim: connectivity architecture covers %d channels, behavior trace has %d",
			len(connArch.Channels), len(bt.Channels))
	}
	for i := range bt.Channels {
		if bt.Channels[i] != connArch.Channels[i] {
			return fmt.Errorf("sim: channel %d mismatch between behavior trace and connectivity architecture", i)
		}
	}
	return nil
}

// ReplayBatch re-times a captured behavior trace against K connectivity
// architectures in a single pass over the event arrays and returns one
// Result per architecture, in input order. Every Result is bit-exact
// equal to Replay(bt, archs[i]) — including energy, histogram and
// scheduler counters. The behavior trace is read-only; distinct batches
// may run concurrently.
func ReplayBatch(bt *BehaviorTrace, archs []*connect.Arch) ([]*Result, error) {
	for i, a := range archs {
		if a == nil {
			return nil, fmt.Errorf("sim: batch arch %d is nil", i)
		}
		if err := checkReplayArch(bt, a); err != nil {
			return nil, fmt.Errorf("sim: batch arch %d: %w", i, err)
		}
	}
	if len(archs) == 0 {
		return nil, nil
	}
	b := newBatchReplayer(bt, archs)
	b.run()
	out := make([]*Result, len(archs))
	for i := range b.res {
		out[i] = &b.res[i]
	}
	return out, nil
}

// compTables is the per-distinct-component set of dense timing tables,
// shared by every (arch, channel) slot of the batch that resolves to a
// component with identical timing parameters. plain and dead are filled
// lazily (and only touched for contended clusters).
type compTables struct {
	cyc   []int32   // n -> TransferCycles(n)
	en    []float64 // n -> TransferEnergy(n)
	plain [][]rtable.Stage
	dead  [][]rtable.Stage
}

// compSig identifies a component up to replay timing and energy: name,
// class, port bounds and area are deliberately excluded.
type compSig struct {
	width, arb, beat int
	pipelined        bool
	epb              float64
}

// batchReplayer holds the state of one ReplayBatch pass.
type batchReplayer struct {
	bt *BehaviorTrace
	k  int // architectures
	nc int // channels
	nm int // modules

	// Shared, behavior-trace-derived (identical for every arch).
	cpuChan    []int32 // module -> CPU channel
	backChan   []int32 // module -> backing channel (-1 if none)
	directChan int32
	l2DRAMChan int32
	pure       []bool // event -> pure on-chip hit (fast-path eligible)

	// Flat per-(arch,channel) tables, indexed a*nc+ch.
	comps  []*connect.Component
	cont   []bool // channel's cluster is contended on this arch
	scheds []*rtable.Scheduler
	tabs   []*compTables

	// Flat per-(arch,module) prefetch state, indexed a*nm+m.
	fetch   []int64
	streamQ [][]int64
	dmaLast []int64

	// Per-arch accumulators.
	archScheds [][]*rtable.Scheduler // real schedulers (contended clusters only)
	fastIssues []int64               // trivially granted issues (uncontended clusters)
	now        []int64
	res        []Result
}

func newBatchReplayer(bt *BehaviorTrace, archs []*connect.Arch) *batchReplayer {
	k, nc, nm := len(archs), len(bt.Channels), len(bt.Modules)
	b := &batchReplayer{
		bt: bt, k: k, nc: nc, nm: nm,
		cpuChan:    make([]int32, nm),
		backChan:   make([]int32, nm),
		directChan: -1,
		l2DRAMChan: -1,
		comps:      make([]*connect.Component, k*nc),
		cont:       make([]bool, k*nc),
		scheds:     make([]*rtable.Scheduler, k*nc),
		tabs:       make([]*compTables, k*nc),
		fetch:      make([]int64, k*nm),
		streamQ:    make([][]int64, k*nm),
		dmaLast:    make([]int64, k*nm),
		archScheds: make([][]*rtable.Scheduler, k),
		fastIssues: make([]int64, k),
		now:        make([]int64, k),
		res:        make([]Result, k),
	}
	for m := range b.backChan {
		b.backChan[m] = -1
	}
	clusterOf := make([]int32, nc) // per-arch scratch
	for ci, ch := range bt.Channels {
		switch ch.Kind {
		case mem.ChanCPUModule:
			b.cpuChan[ch.Module] = int32(ci)
		case mem.ChanModuleDRAM, mem.ChanModuleL2:
			b.backChan[ch.Module] = int32(ci)
		case mem.ChanCPUDRAM:
			b.directChan = int32(ci)
		case mem.ChanL2DRAM:
			b.l2DRAMChan = int32(ci)
		}
	}

	// Classify events once for the whole batch: which modules generate
	// background prefetch traffic (the only source of scheduler
	// contention, see the package comment) and which events are pure
	// on-chip hits.
	modHasPref := make([]bool, nm)
	anyPref := false
	b.pure = make([]bool, len(bt.Route))
	for i, route := range bt.Route {
		if route < 0 {
			continue
		}
		if bt.PrefBytes[i] > 0 {
			modHasPref[route] = true
			anyPref = true
		}
		if bt.Flags[i]&flagHit == 0 || bt.Stall[i] != 0 ||
			bt.DemandBytes[i] != 0 || bt.PrefBytes[i] != 0 {
			continue
		}
		if kind := bt.Modules[route].Kind; kind == mem.KindStream || kind == mem.KindDMA {
			continue
		}
		b.pure[i] = true
	}

	// Per-architecture wiring: dense component/table slots, contended
	// clusters, real schedulers only where contention is possible.
	intern := map[compSig]*compTables{}
	for a, arch := range archs {
		for ci := range bt.Channels {
			clusterOf[ci] = int32(arch.ComponentOf(ci))
		}
		contCl := make([]bool, len(arch.Clusters))
		if anyPref {
			for m := range modHasPref {
				if modHasPref[m] && b.backChan[m] != -1 {
					contCl[clusterOf[b.backChan[m]]] = true
				}
			}
			if bt.HasL2 && b.l2DRAMChan != -1 {
				contCl[clusterOf[b.l2DRAMChan]] = true
			}
		}
		clSched := make([]*rtable.Scheduler, len(arch.Clusters))
		for ci := range bt.Channels {
			x := a*nc + ci
			cl := clusterOf[ci]
			comp := &arch.Assign[cl]
			b.comps[x] = comp
			sig := compSig{comp.WidthBytes, comp.ArbCycles, comp.BeatCycles, comp.Pipelined, comp.EnergyPerByte}
			ct := intern[sig]
			if ct == nil {
				ct = &compTables{
					cyc: make([]int32, bt.MaxBytes+1),
					en:  make([]float64, bt.MaxBytes+1),
				}
				for n := 0; n <= bt.MaxBytes; n++ {
					ct.cyc[n] = int32(comp.TransferCycles(n))
					ct.en[n] = comp.TransferEnergy(n)
				}
				intern[sig] = ct
			}
			b.tabs[x] = ct
			if contCl[cl] {
				b.cont[x] = true
				if clSched[cl] == nil {
					clSched[cl] = rtable.NewScheduler(connect.NumResources())
					b.archScheds[a] = append(b.archScheds[a], clSched[cl])
				}
				b.scheds[x] = clSched[cl]
			}
		}
		// Actual fetch latencies, mirroring sim.New's readiness wiring.
		for m := 0; m < nm; m++ {
			if bc := b.backChan[m]; bc != -1 {
				f := b.comps[a*nc+int(bc)].TransferCycles(32)
				if bt.HasL2 {
					f += bt.L2Latency
				} else {
					f += bt.DRAMRowHit
				}
				b.fetch[a*nm+m] = int64(f)
			}
		}
		b.res[a].ChannelBytes = make([]int64, nc)
		b.res[a].ChannelWait = make([]int64, nc)
		b.res[a].ChannelTransfers = make([]int64, nc)
	}
	return b
}

// plainStages returns the memoized plain-transfer stages for slot x
// (shared per distinct component across the batch).
func (b *batchReplayer) plainStages(x, n int) []rtable.Stage {
	ct := b.tabs[x]
	if ct.plain == nil {
		ct.plain = make([][]rtable.Stage, b.bt.MaxBytes+1)
	}
	if st := ct.plain[n]; st != nil {
		return st
	}
	st := b.comps[x].Stages(n)
	ct.plain[n] = st
	return st
}

// deadStages returns the memoized stages of a non-split off-chip
// transaction holding the bus through dead DRAM cycles.
func (b *batchReplayer) deadStages(x, n, dead int) []rtable.Stage {
	ct := b.tabs[x]
	if ct.dead == nil {
		ct.dead = make([][]rtable.Stage, (b.bt.MaxBytes+1)*(b.bt.MaxDRAMLat+1))
	}
	idx := n*(b.bt.MaxDRAMLat+1) + dead
	if st := ct.dead[idx]; st != nil {
		return st
	}
	st := deadTimeStages(b.comps[x], n, dead)
	ct.dead[idx] = st
	return st
}

// op is one access event decoded once for the whole batch: everything
// the per-architecture step reads from the event arrays and the module
// metadata.
type op struct {
	route     int16 // module index, or -1 for a direct DRAM access
	kind      mem.Kind
	hit       bool
	size      int
	cpuCh     int32
	backCh    int32
	stall     int64 // recorded module stall (non-prefetching kinds only)
	modLat    int64
	modEnergy float64
	topup     int // stream buffer lines topped up by the event
	dem, pref leg // demand and background prefetch backing traffic
}

// leg is one backing transaction of an event; n == 0 means none.
type leg struct {
	n, l2off, dram int
}

// decode fills o from event i, reading each event column only when
// the event uses it.
func (b *batchReplayer) decode(i int, o *op) {
	bt := b.bt
	route := bt.Route[i]
	o.route = route
	o.size = int(bt.Size[i])
	if route < 0 {
		o.dem.dram = int(bt.DemandDRAM[i])
		return
	}
	meta := &bt.Modules[route]
	o.kind = meta.Kind
	o.hit = bt.Flags[i]&flagHit != 0
	o.cpuCh = b.cpuChan[route]
	o.backCh = b.backChan[route]
	o.modLat = int64(meta.Latency)
	o.modEnergy = meta.Energy
	if o.kind != mem.KindStream && o.kind != mem.KindDMA {
		o.stall = int64(bt.Stall[i])
	}
	o.dem = leg{n: int(bt.DemandBytes[i])}
	if o.dem.n > 0 {
		o.dem.l2off, o.dem.dram = int(bt.DemandL2Off[i]), int(bt.DemandDRAM[i])
	}
	o.pref = leg{n: int(bt.PrefBytes[i])}
	o.topup = 0
	if o.pref.n > 0 {
		o.pref.l2off, o.pref.dram = int(bt.PrefL2Off[i]), int(bt.PrefDRAM[i])
		if meta.LineBytes > 0 {
			o.topup = o.pref.n / meta.LineBytes
		}
	}
}

// run replays every window of the behavior trace for every arch.
func (b *batchReplayer) run() {
	bt := b.bt
	nmods := b.nm
	pos := 0
	var o op
	for wi, wlen := range bt.WindowLen {
		if bt.GapCycles[wi] > 0 {
			rs := bt.Resync[wi*nmods*2 : (wi+1)*nmods*2]
			for a := 0; a < b.k; a++ {
				gapStart := b.now[a]
				b.now[a] += bt.GapCycles[wi]
				b.applyResync(a, rs, gapStart)
			}
		}
		for i := pos; i < pos+int(wlen); i++ {
			if b.pure[i] {
				route := bt.Route[i]
				size := int(bt.Size[i])
				ch := b.cpuChan[route]
				modLat := int64(bt.Modules[route].Latency)
				modEnergy := bt.Modules[route].Energy
				decoded := false
				for a := 0; a < b.k; a++ {
					x := a*b.nc + int(ch)
					if b.cont[x] {
						if !decoded {
							b.decode(i, &o)
							decoded = true
						}
						b.step(a, &o)
						continue
					}
					// Pure on-chip hit on an uncontended cluster: the
					// grant is the asking cycle, so the whole event
					// reduces to table lookups. The two energy adds
					// stay separate and ordered to match step().
					ct := b.tabs[x]
					lat := int64(ct.cyc[size]) + modLat
					r := &b.res[a]
					r.EnergyNJ += ct.en[size]
					r.EnergyNJ += modEnergy
					r.ChannelBytes[ch] += int64(size)
					r.ChannelTransfers[ch]++
					r.Hits++
					b.fastIssues[a]++
					r.Accesses++
					r.TotalLatency += lat
					r.LatencyHist[latBucket(int(lat))]++
					r.Cycles += lat + 1
					b.now[a] += lat + 1
				}
			} else {
				b.decode(i, &o)
				for a := 0; a < b.k; a++ {
					b.step(a, &o)
				}
			}
		}
		pos += int(wlen)
	}
	for a := 0; a < b.k; a++ {
		issues, conflicts := schedTotals(b.archScheds[a])
		b.res[a].SchedIssues = issues + b.fastIssues[a]
		b.res[a].SchedConflicts = conflicts
	}
}

// applyResync mirrors (*replayer).applyResync for arch a.
func (b *batchReplayer) applyResync(a int, resync []int32, gapStart int64) {
	now := b.now[a]
	gap := now - gapStart
	for mi := range b.bt.Modules {
		switch b.bt.Modules[mi].Kind {
		case mem.KindStream:
			refills := int64(resync[2*mi])
			anchor := int64(resync[2*mi+1])
			q := b.streamQ[a*b.nm+mi]
			if len(q) == 0 && refills == 0 && anchor < 0 {
				continue // never touched: nothing to rebuild
			}
			f := b.fetch[a*b.nm+mi]
			start, span := gapStart, gap
			var chain int64
			if anchor >= 0 {
				start = gapStart + anchor
				span = gap - anchor
				chain = start
			} else {
				chain = gapStart
				if len(q) > 0 && q[len(q)-1] > chain {
					chain = q[len(q)-1]
				}
			}
			for i := int64(1); i <= refills; i++ {
				if t := start + i*span/(refills+1); t > chain {
					chain = t
				}
				chain += f
			}
			depth := b.bt.Modules[mi].Depth
			if cap(q) < depth {
				q = make([]int64, depth)
			} else {
				q = q[:depth]
			}
			for j := range q {
				rj := chain - int64(depth-1-j)*f
				if rj < now {
					rj = now
				}
				q[j] = rj
			}
			b.streamQ[a*b.nm+mi] = q
		case mem.KindDMA:
			b.dmaLast[a*b.nm+mi] = now - int64(resync[2*mi])
		}
	}
}

// step replays the decoded event o for arch a and advances its clock,
// mirroring (*replayer).event and the accounting of its run loop step
// for step.
func (b *batchReplayer) step(a int, o *op) {
	now := b.now[a]
	r := &b.res[a]
	var t int64
	if o.route < 0 {
		done, energy := b.offChip(a, b.directChan, o.size, o.dem.dram, now, true)
		r.Misses++
		r.EnergyNJ += energy
		r.OffChipBytes += int64(o.size)
		r.ChannelBytes[b.directChan] += int64(o.size)
		t = done
	} else {
		// 1. CPU <-> module link.
		x := a*b.nc + int(o.cpuCh)
		ct := b.tabs[x]
		grant := now
		if b.cont[x] {
			grant = b.grant(a, x, now, b.plainStages(x, o.size), int64(ct.cyc[o.size]), true)
		} else {
			b.fastIssues[a]++
		}
		t = grant + int64(ct.cyc[o.size])
		r.EnergyNJ += ct.en[o.size]
		r.ChannelBytes[o.cpuCh] += int64(o.size)
		r.ChannelWait[o.cpuCh] += grant - now
		r.ChannelTransfers[o.cpuCh]++

		// 2. The module: behavior from the event, prefetch stalls
		// recomputed in this architecture's clock.
		stall := o.stall
		switch o.kind {
		case mem.KindStream:
			stall = b.streamStall(a, o, t)
		case mem.KindDMA:
			stall = b.dmaStall(a, o.route, t, o.hit)
		}
		t += o.modLat + stall
		r.EnergyNJ += o.modEnergy
		if o.hit {
			r.Hits++
		} else {
			r.Misses++
		}

		// 3. Demand backing traffic.
		if o.dem.n > 0 {
			t = b.backing(a, o.backCh, o.dem, t, true)
		}

		// 4. Background prefetch traffic (does not hold up the CPU).
		if o.pref.n > 0 && o.backCh != -1 {
			b.backing(a, o.backCh, o.pref, t, false)
		}
	}
	lat := t - now
	r.Accesses++
	r.TotalLatency += lat
	r.LatencyHist[latBucket(int(lat))]++
	r.Cycles += lat + 1
	b.now[a] = t + 1
}

// grant schedules one leg asked at cycle at on the contended slot x;
// dur is the leg's length from grant to completion. A prefetch leg is
// searched and reserved. A demand leg is only searched, since no later
// request asks before it completes — unless its stages outlast dur,
// when it is reserved too. A demand leg that Idle says would be
// granted at once skips the scheduler and is counted here.
func (b *batchReplayer) grant(a, x int, at int64, stages []rtable.Stage, dur int64, demand bool) int64 {
	s := b.scheds[x]
	if !demand {
		return s.EarliestIssue(at, stages)
	}
	end := rtable.Makespan(stages)
	if int64(end) > dur {
		return s.EarliestIssue(at, stages)
	}
	if s.Idle(at, end) {
		b.fastIssues[a]++
		return at
	}
	return s.Grant(at, stages)
}

// streamStall mirrors (*replayer).streamStall for arch a.
func (b *batchReplayer) streamStall(a int, o *op, t int64) int64 {
	depth := b.bt.Modules[o.route].Depth
	mi := a*b.nm + int(o.route)
	f := b.fetch[mi]
	q := b.streamQ[mi]
	if q == nil {
		q = make([]int64, 0, depth)
	}
	if !o.hit {
		q = q[:0]
		last := t
		q = append(q, last)
		for j := 0; j < o.topup && len(q) < depth; j++ {
			last += f
			q = append(q, last)
		}
		b.streamQ[mi] = q
		return 0
	}
	k := o.topup
	if k >= len(q) {
		k = len(q) - 1
	}
	if k < 0 {
		k = 0
	}
	var stall int64
	if len(q) > 0 {
		if q[k] > t {
			stall = q[k] - t
		}
		q = q[:copy(q, q[k:])]
	}
	base := t + stall
	last := base
	if len(q) > 0 && q[len(q)-1] > last {
		last = q[len(q)-1]
	}
	for j := 0; j < o.topup && len(q) < depth; j++ {
		last += f
		q = append(q, last)
	}
	b.streamQ[mi] = q
	return stall
}

// dmaStall mirrors (*replayer).dmaStall for arch a.
func (b *batchReplayer) dmaStall(a int, route int16, t int64, hit bool) int64 {
	mi := a*b.nm + int(route)
	last := b.dmaLast[mi]
	b.dmaLast[mi] = t
	if !hit {
		return 0
	}
	if ready := last + b.fetch[mi]; ready > t {
		return ready - t
	}
	return 0
}

// backing mirrors (*replayer).backing for arch a; demand marks the
// legs the CPU waits for.
func (b *batchReplayer) backing(a int, backCh int32, l leg, at int64, demand bool) int64 {
	r := &b.res[a]
	if !b.bt.HasL2 {
		done, energy := b.offChip(a, backCh, l.n, l.dram, at, demand)
		r.EnergyNJ += energy
		r.OffChipBytes += int64(l.n)
		r.ChannelBytes[backCh] += int64(l.n)
		return done
	}
	x := a*b.nc + int(backCh)
	ct := b.tabs[x]
	grant := at
	if b.cont[x] {
		grant = b.grant(a, x, at, b.plainStages(x, l.n), int64(ct.cyc[l.n]), demand)
	} else {
		b.fastIssues[a]++
	}
	r.ChannelWait[backCh] += grant - at
	r.ChannelTransfers[backCh]++
	r.ChannelBytes[backCh] += int64(l.n)
	r.EnergyNJ += ct.en[l.n]
	t := grant + int64(ct.cyc[l.n])

	t += int64(b.bt.L2Latency)
	r.EnergyNJ += b.bt.L2Energy
	if l.l2off > 0 && b.l2DRAMChan != -1 {
		done, energy := b.offChip(a, b.l2DRAMChan, l.l2off, l.dram, t, demand)
		r.EnergyNJ += energy
		r.OffChipBytes += int64(l.l2off)
		r.ChannelBytes[b.l2DRAMChan] += int64(l.l2off)
		t = done
	}
	return t
}

// offChip mirrors (*replayer).offChip for arch a. On uncontended
// clusters every grant is the asking cycle (for split components both
// the address and the data phase), so the scheduler and its stage
// tables are skipped entirely.
func (b *batchReplayer) offChip(a int, ch int32, n, dramLat int, at int64, demand bool) (int64, float64) {
	x := a*b.nc + int(ch)
	ct := b.tabs[x]
	r := &b.res[a]
	energy := ct.en[n] + b.bt.DRAMEnergy

	r.ChannelTransfers[ch]++
	if b.comps[x].Split {
		if !b.cont[x] {
			b.fastIssues[a] += 2
			return at + int64(ct.cyc[4]) + int64(dramLat) + int64(ct.cyc[n]), energy
		}
		addrGrant := b.grant(a, x, at, b.plainStages(x, 4), int64(ct.cyc[4]), demand)
		ready := addrGrant + int64(ct.cyc[4]) + int64(dramLat)
		dataGrant := b.grant(a, x, ready, b.plainStages(x, n), int64(ct.cyc[n]), demand)
		r.ChannelWait[ch] += (addrGrant - at) + (dataGrant - ready)
		return dataGrant + int64(ct.cyc[n]), energy
	}
	if !b.cont[x] {
		b.fastIssues[a]++
		return at + int64(ct.cyc[n]) + int64(dramLat), energy
	}
	grant := b.grant(a, x, at, b.deadStages(x, n, dramLat), int64(ct.cyc[n])+int64(dramLat), demand)
	r.ChannelWait[ch] += grant - at
	return grant + int64(ct.cyc[n]) + int64(dramLat), energy
}
