// Package profile extracts per-data-structure access-pattern statistics
// from a memory trace — the APEX step's input. For every data structure
// it measures traffic, footprint, stride behaviour, store fraction, and
// successor consistency (how predictable the next address is given the
// current one — the property that makes a structure a candidate for the
// paper's "DMA-like" self-indirect memory modules), then classifies the
// structure into a pattern class.
package profile

import (
	"fmt"
	"math/bits"
	"sort"

	"memorex/internal/trace"
)

// Class is the detected access-pattern class of a data structure.
type Class int

// Pattern classes.
const (
	// ClassStream is a forward sequential sweep (unit or near-unit
	// element stride): the stream-buffer target.
	ClassStream Class = iota
	// ClassStrided is a constant non-unit stride.
	ClassStrided
	// ClassSelfIndirect is a value-dependent but consistent chain
	// (linked lists, self-indirect array walks): the LL-DMA target.
	ClassSelfIndirect
	// ClassIndexed is irregular with a small hot footprint: the
	// SRAM-mapping target.
	ClassIndexed
	// ClassRandom is irregular with a large footprint: best cached.
	ClassRandom
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassStream:
		return "stream"
	case ClassStrided:
		return "strided"
	case ClassSelfIndirect:
		return "self-indirect"
	case ClassIndexed:
		return "indexed"
	case ClassRandom:
		return "random"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Stats summarizes the accesses of one data structure.
type Stats struct {
	DS   trace.DSID
	Name string
	// Count is the number of accesses; Bytes the bytes moved.
	Count int64
	Bytes int64
	// StoreFrac is the fraction of accesses that are stores.
	StoreFrac float64
	// FootprintBytes is the number of distinct 32-byte blocks touched
	// times 32 — the working-set size relevant to SRAM mapping.
	FootprintBytes int64
	// RegionBytes is the declared size of the structure.
	RegionBytes int64
	// StreamFrac is the fraction of accesses at a small positive delta
	// from the previous access to the same structure.
	StreamFrac float64
	// DominantStride is the most common non-zero inter-access delta.
	DominantStride int32
	// DominantFrac is the fraction of accesses at that delta.
	DominantFrac float64
	// ChainRatio is the successor-consistency: the fraction of
	// transitions where the address seen after address X equals the
	// successor seen the previous time X was visited. Near 1 for
	// pointer chains, near 0 for random probing.
	ChainRatio float64
	// MedianReuseGap is the median number of this structure's accesses
	// between consecutive touches of the same 32-byte block (temporal
	// reuse distance). 0 means blocks are never revisited. Small gaps
	// mean even a tiny cache captures the locality; huge gaps mean only
	// capacity on the order of the footprint helps.
	MedianReuseGap int64
	// ReuseFraction is the fraction of accesses that revisit a block
	// touched before.
	ReuseFraction float64
	// Class is the resulting classification.
	Class Class
}

// Share returns this structure's fraction of total trace accesses.
func (s *Stats) Share(total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(s.Count) / float64(total)
}

// Profile holds the per-structure statistics of a trace, ordered by
// descending access count (most active first, as APEX wants).
type Profile struct {
	Trace *trace.Trace
	Total int64
	Stats []Stats
}

// ByDS returns the stats for a given data structure, or nil.
func (p *Profile) ByDS(id trace.DSID) *Stats {
	for i := range p.Stats {
		if p.Stats[i].DS == id {
			return &p.Stats[i]
		}
	}
	return nil
}

// ByName returns the stats for the named data structure, or nil.
func (p *Profile) ByName(name string) *Stats {
	for i := range p.Stats {
		if p.Stats[i].Name == name {
			return &p.Stats[i]
		}
	}
	return nil
}

// classification thresholds. The chain threshold is deliberately low:
// successor consistency measured on addresses underestimates how well a
// hardware pointer-walker predicts (probe chains restart at every new
// lookup), and even a 25-30% consistent structure profits from a
// self-indirect prefetcher — the paper's compress hash table is exactly
// such a case (its architecture c gains "roughly 10%").
const (
	streamThreshold = 0.70
	chainThreshold  = 0.25
	hotFootprint    = 16 * 1024
)

// denseRegionCap is the largest declared region, in bytes, whose
// per-block last-touch ordinals and per-address successors Analyze
// keeps in dense tables; a larger region falls back to maps. The
// tables take about 4.4 bytes per region byte.
const denseRegionCap = 4 << 20

// tally is what one pass over the trace measured for one structure;
// summarize turns it into Stats.
type tally struct {
	count, bytes, stores int64
	// footprint counts the distinct 32-byte blocks touched.
	footprint   int64
	strides     map[int32]int64
	smallPos    int64
	transitions int64
	consistent  int64
	// gapHist[k] counts reuse gaps in [2^k, 2^(k+1)).
	gapHist [33]int64
	reuses  int64
}

// regionState tracks one structure during Analyze. Blocks and addresses
// inside the declared region index dense tables; anything outside it
// (only possible in an unvalidated trace) or in an oversized region
// goes to the maps, so every key lives in exactly one of the two.
type regionState struct {
	tally
	lastAddr uint32
	// runDelta/runLen coalesce a run of equal non-zero deltas into one
	// stride-map update.
	runDelta int32
	runLen   int64

	blockLo   uint32   // block number of lastTouch[0]
	lastTouch []int64  // per block: ordinal of its last access, 0 = never
	base      uint32   // address of succ[0]
	succ      []uint32 // per address offset: the address that followed it
	succSet   []uint64 // bitset: succ[i] has been recorded

	blocks    map[uint32]int64  // block -> last ordinal, outside lastTouch
	successor map[uint32]uint32 // address -> successor, outside succ
}

// init sizes the dense tables from the structure's declared region.
func (st *regionState) init(d trace.DSInfo) {
	st.strides = map[int32]int64{}
	if d.Size == 0 || d.Size > denseRegionCap {
		return
	}
	st.blockLo = d.Base / 32
	st.lastTouch = make([]int64, (d.Base%32+d.Size+31)/32)
	st.base = d.Base
	st.succ = make([]uint32, d.Size)
	st.succSet = make([]uint64, (d.Size+63)/64)
}

// touch records the current access to a 32-byte block and returns the
// ordinal of the block's previous access, 0 on first touch.
func (st *regionState) touch(block uint32) int64 {
	if i := block - st.blockLo; i < uint32(len(st.lastTouch)) {
		last := st.lastTouch[i]
		st.lastTouch[i] = st.count
		return last
	}
	if st.blocks == nil {
		st.blocks = map[uint32]int64{}
	}
	last := st.blocks[block]
	st.blocks[block] = st.count
	return last
}

// follow records that to followed from and reports whether it also did
// the previous time from was visited.
func (st *regionState) follow(from, to uint32) bool {
	if i := from - st.base; i < uint32(len(st.succ)) {
		w, bit := i/64, uint64(1)<<(i%64)
		same := st.succSet[w]&bit != 0 && st.succ[i] == to
		st.succ[i] = to
		st.succSet[w] |= bit
		return same
	}
	if st.successor == nil {
		st.successor = map[uint32]uint32{}
	}
	prev, ok := st.successor[from]
	st.successor[from] = to
	return ok && prev == to
}

// flushRun adds the pending run of equal deltas to the stride map.
func (st *regionState) flushRun() {
	if st.runLen > 0 {
		st.strides[st.runDelta] += st.runLen
		st.runLen = 0
	}
}

// Analyze profiles the trace.
func Analyze(t *trace.Trace) *Profile {
	n := len(t.DS)
	// The anonymous pseudo-structure (DS 0) is never reported, so it
	// keeps no state.
	states := make([]regionState, n)
	for _, a := range t.Accesses {
		if a.DS == trace.Anonymous || int(a.DS) >= n {
			continue
		}
		st := &states[a.DS]
		if st.count == 0 {
			st.init(t.DS[a.DS])
		}
		st.count++
		st.bytes += int64(a.Size)
		if a.Kind == trace.Store {
			st.stores++
		}
		if last := st.touch(a.Addr / 32); last != 0 {
			st.gapHist[log2u64(uint64(st.count-last))]++
			st.reuses++
		} else {
			st.footprint++
		}
		if st.count > 1 {
			delta := int32(a.Addr) - int32(st.lastAddr)
			if delta != 0 {
				if delta != st.runDelta {
					st.flushRun()
					st.runDelta = delta
				}
				st.runLen++
			}
			if delta > 0 && delta <= 16 {
				st.smallPos++
			}
			st.transitions++
			if st.follow(st.lastAddr, a.Addr) {
				st.consistent++
			}
		}
		st.lastAddr = a.Addr
	}
	tallies := make([]tally, n)
	for i := range states {
		states[i].flushRun()
		tallies[i] = states[i].tally
	}
	return summarize(t, tallies)
}

// summarize turns the per-structure tallies (indexed by DS id) into the
// profile: one Stats per accessed structure, skipping the anonymous
// pseudo-structure, most active first.
func summarize(t *trace.Trace, tallies []tally) *Profile {
	p := &Profile{Trace: t, Total: int64(len(t.Accesses))}
	for i := 1; i < len(tallies); i++ { // skip the anonymous pseudo-structure
		st := &tallies[i]
		if st.count == 0 {
			continue
		}
		s := Stats{
			DS:             trace.DSID(i),
			Name:           t.DS[i].Name,
			Count:          st.count,
			Bytes:          st.bytes,
			FootprintBytes: st.footprint * 32,
			RegionBytes:    int64(t.DS[i].Size),
		}
		if st.count > 0 {
			s.StoreFrac = float64(st.stores) / float64(st.count)
			s.ReuseFraction = float64(st.reuses) / float64(st.count)
		}
		if st.reuses > 0 {
			// Median of the log-bucketed gap histogram: the geometric
			// center of the bucket holding the middle sample.
			half := st.reuses / 2
			var cum int64
			for k, c := range st.gapHist {
				cum += c
				if cum > half {
					s.MedianReuseGap = int64(1) << uint(k)
					break
				}
			}
		}
		if st.transitions > 0 {
			s.StreamFrac = float64(st.smallPos) / float64(st.transitions)
			s.ChainRatio = float64(st.consistent) / float64(st.transitions)
			var bestStride int32
			var bestCount int64
			for d, c := range st.strides {
				if c > bestCount || (c == bestCount && d < bestStride) {
					bestStride, bestCount = d, c
				}
			}
			s.DominantStride = bestStride
			s.DominantFrac = float64(bestCount) / float64(st.transitions)
		}
		s.Class = classify(&s)
		p.Stats = append(p.Stats, s)
	}
	sort.Slice(p.Stats, func(i, j int) bool {
		if p.Stats[i].Count != p.Stats[j].Count {
			return p.Stats[i].Count > p.Stats[j].Count
		}
		return p.Stats[i].DS < p.Stats[j].DS
	})
	return p
}

// log2u64 returns floor(log2(v)) for v >= 1, capped at 32.
func log2u64(v uint64) int {
	return max(0, min(bits.Len64(v)-1, 32))
}

// classify orders the checks by module preference: streams first, then
// hot small structures (an SRAM always beats a prefetcher when the whole
// structure fits on chip), then consistent chains, then random.
func classify(s *Stats) Class {
	switch {
	case s.StreamFrac >= streamThreshold:
		return ClassStream
	case s.DominantFrac >= streamThreshold && s.DominantStride > 0:
		return ClassStrided
	case s.FootprintBytes <= hotFootprint:
		return ClassIndexed
	case s.ChainRatio >= chainThreshold:
		return ClassSelfIndirect
	default:
		return ClassRandom
	}
}
