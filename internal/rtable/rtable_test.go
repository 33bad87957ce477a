package rtable

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableBasics(t *testing.T) {
	rt := New("bus", 2)
	rt.Stage(0, 0, 1) // arbiter cycle 0
	rt.Stage(1, 1, 2) // data cycles 1-2
	if rt.Length() != 3 {
		t.Fatalf("Length = %d, want 3", rt.Length())
	}
	s := rt.String()
	if !strings.Contains(s, "X..") || !strings.Contains(s, ".XX") {
		t.Fatalf("String rendering wrong:\n%s", s)
	}
}

func TestTableStagePanics(t *testing.T) {
	rt := New("x", 1)
	for _, f := range []func(){
		func() { rt.Stage(1, 0, 1) },
		func() { rt.Stage(-1, 0, 1) },
		func() { rt.Stage(0, 63, 2) },
		func() { rt.Stage(0, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Stage accepted invalid arguments")
				}
			}()
			f()
		}()
	}
}

func TestConflictFree(t *testing.T) {
	// Single resource busy for 3 cycles: spacings 1,2 conflict, 3+ free.
	rt := New("simple", 1).Stage(0, 0, 3)
	for k := 1; k <= 2; k++ {
		if rt.ConflictFree(k) {
			t.Fatalf("spacing %d should conflict", k)
		}
	}
	if !rt.ConflictFree(3) || !rt.ConflictFree(64) || !rt.ConflictFree(100) {
		t.Fatal("large spacings should be conflict free")
	}
	if rt.ConflictFree(-1) {
		t.Fatal("negative spacing cannot be conflict free")
	}
}

func TestForbiddenLatenciesClassic(t *testing.T) {
	// The classic non-contiguous example: resource used at cycles 0 and 3.
	rt := New("classic", 1)
	rt.Stage(0, 0, 1).Stage(0, 3, 1)
	fl := rt.ForbiddenLatencies()
	if len(fl) != 1 || fl[0] != 3 {
		t.Fatalf("forbidden latencies = %v, want [3]", fl)
	}
	// Spacing 1 repeated collides transitively (ops 0 and 3 share cycle
	// 3), so the smallest sustainable interval is 2.
	if rt.MinInitiationInterval() != 2 {
		t.Fatalf("MII = %d, want 2", rt.MinInitiationInterval())
	}
}

func TestMIIFullyBusy(t *testing.T) {
	rt := New("block", 1).Stage(0, 0, 4)
	if got := rt.MinInitiationInterval(); got != 4 {
		t.Fatalf("MII of a 4-cycle blocking op = %d, want 4", got)
	}
}

func TestMIIRespectsMultiples(t *testing.T) {
	// Occupied at cycles 0 and 4: k=2 is conflict-free for one pair but
	// its multiple 4 collides, so MII must skip 2.
	rt := New("mult", 1)
	rt.Stage(0, 0, 1).Stage(0, 4, 1)
	if rt.ConflictFree(4) {
		t.Fatal("spacing 4 should conflict")
	}
	mii := rt.MinInitiationInterval()
	if mii == 2 || mii == 4 {
		t.Fatalf("MII = %d, but multiples of it collide", mii)
	}
	if mii != 3 {
		t.Fatalf("MII = %d, want 3", mii)
	}
}

func TestEmptyTable(t *testing.T) {
	rt := New("empty", 1)
	if rt.Length() != 0 || rt.MinInitiationInterval() != 1 || len(rt.ForbiddenLatencies()) != 0 {
		t.Fatal("empty table invariants broken")
	}
	if len(rt.Stages()) != 0 {
		t.Fatal("empty table has stages")
	}
}

func TestStagesRoundTrip(t *testing.T) {
	rt := New("rt", 3)
	rt.Stage(0, 0, 2).Stage(1, 2, 3).Stage(2, 1, 1).Stage(0, 5, 1)
	stages := rt.Stages()
	rebuilt := New("rb", 3)
	for _, s := range stages {
		rebuilt.Stage(s.Res, s.Start, s.Len)
	}
	for r := range rt.Rows {
		if rt.Rows[r] != rebuilt.Rows[r] {
			t.Fatalf("resource %d: %b != %b", r, rt.Rows[r], rebuilt.Rows[r])
		}
	}
}

func TestSchedulerSerializesBlockingOps(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 4}}
	t0 := s.EarliestIssue(0, stages)
	t1 := s.EarliestIssue(0, stages)
	t2 := s.EarliestIssue(0, stages)
	if t0 != 0 || t1 != 4 || t2 != 8 {
		t.Fatalf("blocking ops should serialize at 0,4,8; got %d,%d,%d", t0, t1, t2)
	}
}

func TestSchedulerPipelinedOverlap(t *testing.T) {
	// Two resources: arbiter (1 cycle) then data (1 cycle): II = 1.
	s := NewScheduler(2)
	stages := []Stage{{Res: 0, Start: 0, Len: 1}, {Res: 1, Start: 1, Len: 1}}
	times := make([]int64, 4)
	for i := range times {
		times[i] = s.EarliestIssue(0, stages)
	}
	for i, want := range []int64{0, 1, 2, 3} {
		if times[i] != want {
			t.Fatalf("pipelined issue %d at %d, want %d", i, times[i], want)
		}
	}
}

func TestSchedulerRespectsRequestTime(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 2}}
	if got := s.EarliestIssue(100, stages); got != 100 {
		t.Fatalf("idle unit should grant at request time, got %d", got)
	}
	if got := s.EarliestIssue(101, stages); got != 102 {
		t.Fatalf("overlapping request should be pushed to 102, got %d", got)
	}
	if got := s.EarliestIssue(-5, stages); got < 0 {
		t.Fatalf("negative request time should clamp to 0, got %d", got)
	}
}

func TestSchedulerRelease(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 8}}
	t0 := s.EarliestIssue(0, stages)
	s.Release(t0, stages)
	if got := s.EarliestIssue(0, stages); got != 0 {
		t.Fatalf("released slot should be reusable at 0, got %d", got)
	}
}

func TestSchedulerWindowAdvance(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 2}}
	var last int64
	// Jump far beyond the window several times; scheduling must remain
	// monotone and conflict-free within each epoch.
	for _, at := range []int64{0, 10_000, 1_000_000, 50_000_000} {
		a := s.EarliestIssue(at, stages)
		b := s.EarliestIssue(at, stages)
		if a < at || b != a+2 {
			t.Fatalf("after jump to %d: got %d, %d", at, a, b)
		}
		if a < last {
			t.Fatal("time went backwards")
		}
		last = b
	}
}

// TestSchedulerHorizonAndIdle: the horizon is one past the last
// reserved cycle, Grant does not move it, and Idle holds exactly for a
// request at or after it whose Grant would leave the window where it
// is — so skipping that Grant leaves the scheduler as Grant would.
func TestSchedulerHorizonAndIdle(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 4}}
	if got := s.EarliestIssue(10, stages); got != 10 || s.horizon != 14 {
		t.Fatalf("EarliestIssue = %d, horizon %d; want 10, 14", got, s.horizon)
	}
	if got := s.Grant(12, stages); got != 14 || s.horizon != 14 {
		t.Fatalf("Grant(12) = %d, horizon %d; want 14 and no reservation", got, s.horizon)
	}
	slide := s.base + int64((s.words-1)*64) // first end that slides the window
	for _, c := range []struct {
		at   int64
		want bool
	}{{13, false}, {14, true}, {slide - 5, true}, {slide - 4, false}} {
		if got := s.Idle(c.at, 4); got != c.want {
			t.Errorf("Idle(%d, 4) = %v, want %v", c.at, got, c.want)
		}
		base, before := s.base, s.stats
		g := s.Grant(c.at, stages)
		if c.want && (g != c.at || s.base != base || s.stats != (Stats{Issues: before.Issues + 1, Conflicts: before.Conflicts})) {
			t.Errorf("Grant(%d) after Idle = %d, base %d -> %d, stats %+v", c.at, g, base, s.base, s.stats)
		}
	}
}

func TestSchedulerPanicsOnBadResource(t *testing.T) {
	s := NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Fatal("EarliestIssue accepted out-of-range resource")
		}
	}()
	s.EarliestIssue(0, []Stage{{Res: 5, Start: 0, Len: 1}})
}

// Property: ConflictFree(k) is exactly "no resource has two ops k apart",
// verified against a brute-force bit check.
func TestQuickConflictFreeBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := New("q", 2)
		for i := 0; i < 6; i++ {
			rt.Stage(rng.Intn(2), rng.Intn(20), 1+rng.Intn(3))
		}
		for k := 0; k < 25; k++ {
			brute := true
			for _, row := range rt.Rows {
				for c := 0; c+k < 64; c++ {
					if row&(1<<uint(c)) != 0 && row&(1<<uint(c+k)) != 0 {
						brute = false
					}
				}
			}
			if rt.ConflictFree(k) != brute {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a scheduler never double-books a resource — replaying the
// grant times against a brute-force occupancy map finds no overlap.
func TestQuickSchedulerNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(2)
		occupied := map[int64]bool{} // res*1e9 + cycle
		at := int64(0)
		for i := 0; i < 200; i++ {
			at += int64(rng.Intn(3))
			stages := []Stage{
				{Res: 0, Start: 0, Len: 1 + rng.Intn(2)},
				{Res: 1, Start: 1, Len: 1 + rng.Intn(3)},
			}
			g := s.EarliestIssue(at, stages)
			if g < at {
				return false
			}
			for _, st := range stages {
				for c := 0; c < st.Len; c++ {
					key := int64(st.Res)*1_000_000_000 + g + int64(st.Start+c)
					if occupied[key] {
						return false
					}
					occupied[key] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// benchRequest is one request of benchStream: ask gap cycles after the
// requester's clock; a demand request then holds the requester until
// its reservation ends.
type benchRequest struct {
	gap    int64
	demand bool
	stages []Stage
}

// benchStream is a request sequence shaped like one replayed off-chip
// bus shared by a cache and two prefetchers: blocking demand line
// fills of an off32-like non-split bus held through the DRAM dead time
// (arbiter and data path together), each followed by background
// prefetch fills asked at the fill's completion.
func benchStream(n int) []benchRequest {
	rng := rand.New(rand.NewSource(1))
	dead := func(l int) []Stage { return []Stage{{Res: 0, Start: 0, Len: l}, {Res: 1, Start: 0, Len: l}} }
	out := make([]benchRequest, 0, n)
	for len(out) < n {
		dram := 6 + 14*rng.Intn(2) // row hit or miss
		out = append(out, benchRequest{gap: int64(1 + rng.Intn(12)), demand: true, stages: dead(2 + dram + 8)})
		for p := rng.Intn(3); p > 0 && len(out) < n; p-- {
			out = append(out, benchRequest{stages: dead(2 + 6 + 8)})
		}
	}
	return out
}

// BenchmarkEarliestIssue times the scheduler on benchStream and
// reports the cost per scheduled request.
func BenchmarkEarliestIssue(b *testing.B) {
	reqs := benchStream(1 << 14)
	for i := 0; i < b.N; i++ {
		s := NewScheduler(2)
		var now int64
		for _, r := range reqs {
			g := s.EarliestIssue(now+r.gap, r.stages)
			if r.demand {
				now = g + int64(r.stages[0].Len)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(reqs))), "ns/issue")
}

// ReferenceScheduler is the scheduler as it was before Grant, Reserve
// and the horizon fast path: a single EarliestIssue that always
// searches the bitmap and reserves. It is frozen here, exported only
// to this package's tests, as the oracle FuzzSchedulerMatchesReference
// holds the production Scheduler to. The replay paths' own oracle, the
// one-phase simulator, shares the production Scheduler, so this is the
// only check that would catch a bug hitting both at once.
type ReferenceScheduler struct {
	res    int
	base   int64
	words  int
	window [][]uint64
	stats  Stats
}

// NewReferenceScheduler returns a reference scheduler over the given
// number of resources.
func NewReferenceScheduler(resources int) *ReferenceScheduler {
	s := &ReferenceScheduler{res: resources, words: defaultWindowWords}
	s.window = make([][]uint64, resources)
	for i := range s.window {
		s.window[i] = make([]uint64, s.words)
	}
	return s
}

// Stats returns the reference scheduler's activity counters.
func (s *ReferenceScheduler) Stats() Stats { return s.stats }

func (s *ReferenceScheduler) advance(t int64) {
	if t < s.base+int64((s.words-1)*64) {
		return
	}
	newBase := t - int64(s.words*16)
	if newBase < s.base {
		newBase = s.base
	}
	shiftWords := int((newBase - s.base + 63) / 64)
	if shiftWords <= 0 {
		return
	}
	if shiftWords >= s.words {
		for r := range s.window {
			for w := range s.window[r] {
				s.window[r][w] = 0
			}
		}
		s.base += int64(shiftWords * 64)
		return
	}
	for r := range s.window {
		copy(s.window[r], s.window[r][shiftWords:])
		for w := s.words - shiftWords; w < s.words; w++ {
			s.window[r][w] = 0
		}
	}
	s.base += int64(shiftWords * 64)
}

func (s *ReferenceScheduler) firstBusy(res int, t int64, n int) int64 {
	if n <= 0 {
		return -1
	}
	if t < s.base {
		skip := s.base - t
		if skip >= int64(n) {
			return -1
		}
		t = s.base
		n -= int(skip)
	}
	off := t - s.base
	w := int(off >> 6)
	bit := uint(off & 63)
	row := s.window[res]
	for n > 0 && w < s.words {
		take := 64 - int(bit)
		if take > n {
			take = n
		}
		if hit := row[w] & maskFrom(bit, take); hit != 0 {
			return s.base + int64(w)<<6 + int64(bits.TrailingZeros64(hit))
		}
		n -= take
		w++
		bit = 0
	}
	return -1
}

func (s *ReferenceScheduler) busyRunEnd(res int, c int64) int64 {
	off := c - s.base
	w := int(off >> 6)
	bit := uint(off & 63)
	row := s.window[res]
	for w < s.words {
		if free := ^row[w] >> bit << bit; free != 0 {
			return s.base + int64(w)<<6 + int64(bits.TrailingZeros64(free)) - 1
		}
		w++
		bit = 0
	}
	return s.base + int64(s.words)<<6 - 1
}

func (s *ReferenceScheduler) markRange(res int, t int64, n int) {
	if t < s.base {
		skip := s.base - t
		if skip >= int64(n) {
			return
		}
		t = s.base
		n -= int(skip)
	}
	off := t - s.base
	w := int(off >> 6)
	bit := uint(off & 63)
	row := s.window[res]
	for n > 0 && w < s.words {
		take := 64 - int(bit)
		if take > n {
			take = n
		}
		row[w] |= maskFrom(bit, take)
		n -= take
		w++
		bit = 0
	}
}

// EarliestIssue returns the first cycle >= at where stages can be
// reserved without conflicting with prior reservations, and reserves
// them.
func (s *ReferenceScheduler) EarliestIssue(at int64, stages []Stage) int64 {
	if at < 0 {
		at = 0
	}
	maxEnd := 0
	for _, st := range stages {
		if st.Res < 0 || st.Res >= s.res {
			panic(fmt.Sprintf("rtable: stage resource %d out of range (have %d)", st.Res, s.res))
		}
		if end := st.Start + st.Len; end > maxEnd {
			maxEnd = end
		}
	}
	s.advance(at + int64(maxEnd))
	s.stats.Issues++
	t := at
search:
	for {
		for _, st := range stages {
			c := s.firstBusy(st.Res, t+int64(st.Start), st.Len)
			if c < 0 {
				continue
			}
			s.stats.Conflicts++
			next := s.busyRunEnd(st.Res, c) - int64(st.Start) + 1
			if next <= t {
				next = t + 1
			}
			t = next
			s.advance(t + int64(maxEnd))
			continue search
		}
		break
	}
	for _, st := range stages {
		s.markRange(st.Res, t+int64(st.Start), st.Len)
	}
	return t
}
