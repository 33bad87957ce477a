package profile

import (
	"encoding/binary"
	"reflect"
	"testing"

	"memorex/internal/trace"
	"memorex/internal/workload"
)

func TestClassifySynthetic(t *testing.T) {
	cases := []struct {
		kind workload.SyntheticKind
		want Class
	}{
		{workload.SynStream, ClassStream},
		{workload.SynSelfIndirect, ClassSelfIndirect},
	}
	for _, c := range cases {
		// The region must be revisited for successor consistency to be
		// observable (50k accesses over 16Ki elements = ~3 laps).
		tr := workload.Synthetic(c.kind, 50_000, 64*1024, 11)
		p := Analyze(tr)
		s := p.ByName("data")
		if s == nil {
			t.Fatalf("kind %d: data structure not profiled", c.kind)
		}
		if s.Class != c.want {
			t.Fatalf("kind %d classified as %v, want %v (stats %+v)", c.kind, s.Class, c.want, *s)
		}
	}
}

func TestClassifyRandomLargeFootprint(t *testing.T) {
	tr := workload.Synthetic(workload.SynRandom, 100_000, 1<<20, 5)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.Class != ClassRandom {
		t.Fatalf("random over 1MiB classified as %v (stats %+v)", s.Class, *s)
	}
}

func TestClassifyIndexedSmallFootprint(t *testing.T) {
	// Random accesses within a small region: hot indexed table.
	tr := workload.Synthetic(workload.SynRandom, 50_000, 4096, 5)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.Class != ClassIndexed {
		t.Fatalf("hot 4KiB random table classified as %v, want indexed", s.Class)
	}
}

func TestStatsBasics(t *testing.T) {
	b := trace.NewBuilder("t", 16)
	id, _ := b.Region("d", 1024, 4)
	for i := uint32(0); i < 10; i++ {
		b.Load(id, i*4, 4)
	}
	b.Store(id, 0, 4)
	tr := b.Build()
	p := Analyze(tr)
	s := p.ByDS(id)
	if s == nil {
		t.Fatal("structure missing")
	}
	if s.Count != 11 || s.Bytes != 44 {
		t.Fatalf("count/bytes wrong: %+v", s)
	}
	if s.StoreFrac <= 0.08 || s.StoreFrac >= 0.1 {
		t.Fatalf("store fraction = %v, want 1/11", s.StoreFrac)
	}
	if s.DominantStride != 4 {
		t.Fatalf("dominant stride = %d, want 4", s.DominantStride)
	}
	if s.Share(p.Total) != 1.0 {
		t.Fatalf("share = %v, want 1", s.Share(p.Total))
	}
}

func TestChainRatioPermutation(t *testing.T) {
	// A permutation cycle walked repeatedly: after the first lap, every
	// transition is consistent.
	tr := workload.Synthetic(workload.SynSelfIndirect, 4096, 4096, 13)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.ChainRatio < 0.7 {
		t.Fatalf("chain ratio %.3f too low for a permutation walk", s.ChainRatio)
	}
}

func TestChainRatioRandomLow(t *testing.T) {
	tr := workload.Synthetic(workload.SynRandom, 50_000, 1<<20, 17)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.ChainRatio > 0.05 {
		t.Fatalf("chain ratio %.3f too high for random accesses", s.ChainRatio)
	}
}

func TestProfileOrderedByCount(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	p := Analyze(tr)
	for i := 1; i < len(p.Stats); i++ {
		if p.Stats[i].Count > p.Stats[i-1].Count {
			t.Fatal("stats not sorted by descending count")
		}
	}
	if p.Stats[0].Name != "htab" {
		t.Fatalf("compress should be dominated by htab, got %q", p.Stats[0].Name)
	}
}

func TestWorkloadClassesMatchPaperIntuition(t *testing.T) {
	// The vocoder is stream-dominated; its big buffers must classify as
	// streams and its codebook must not.
	tr := workload.Vocoder{}.Generate(workload.DefaultConfig())
	p := Analyze(tr)
	if s := p.ByName("speech"); s == nil || s.Class != ClassStream {
		t.Fatalf("speech classified as %v, want stream", p.ByName("speech").Class)
	}
	if s := p.ByName("history"); s == nil || s.Class == ClassRandom {
		t.Fatalf("history should not look random")
	}
	// The li heap must show strong successor consistency (cons-cell
	// chains) — the property the LL-DMA module exploits.
	trLi := workload.Li{}.Generate(workload.DefaultConfig())
	pLi := Analyze(trLi)
	heap := pLi.ByName("heap")
	if heap == nil {
		t.Fatal("li heap missing")
	}
	if heap.ChainRatio < 0.3 {
		t.Fatalf("li heap chain ratio %.3f too low", heap.ChainRatio)
	}
}

func TestByNameMissing(t *testing.T) {
	tr := workload.Synthetic(workload.SynStream, 100, 1024, 1)
	p := Analyze(tr)
	if p.ByName("nope") != nil || p.ByDS(99) != nil {
		t.Fatal("lookup of missing structure should return nil")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassStream: "stream", ClassStrided: "strided",
		ClassSelfIndirect: "self-indirect", ClassIndexed: "indexed",
		ClassRandom: "random",
	} {
		if c.String() != want {
			t.Fatalf("Class(%d) = %q, want %q", c, c, want)
		}
	}
}

func TestShareZeroTotal(t *testing.T) {
	s := Stats{Count: 5}
	if s.Share(0) != 0 {
		t.Fatal("Share(0) should be 0")
	}
}

func TestReuseGapStats(t *testing.T) {
	// A hot 64-block table touched round-robin: every access after the
	// first lap reuses a block touched exactly 64 accesses ago.
	b := trace.NewBuilder("reuse", 10_000)
	id, _ := b.Region("tab", 64*32, 4)
	for i := uint32(0); i < 10_000; i++ {
		b.Load(id, (i%64)*32, 4)
	}
	p := Analyze(b.Build())
	s := p.ByDS(id)
	if s.ReuseFraction < 0.98 {
		t.Fatalf("round-robin table should reuse nearly always: %.3f", s.ReuseFraction)
	}
	if s.MedianReuseGap != 64 {
		t.Fatalf("median reuse gap = %d, want 64", s.MedianReuseGap)
	}
	// A pure one-pass stream never revisits a block.
	tr := workload.Synthetic(workload.SynStream, 1000, 1<<20, 1)
	st := Analyze(tr).ByName("data")
	if st.ReuseFraction > 0.9 {
		t.Fatalf("single-pass stream should barely reuse, got %.3f", st.ReuseFraction)
	}
}

// analyzeReference is the map-based profiler Analyze's dense region
// tables replaced: one map per structure for block last-touch ordinals,
// address successors and strides, every delta counted one at a time.
// It is the oracle the differential tests hold Analyze to.
func analyzeReference(t *trace.Trace) *Profile {
	n := len(t.DS)
	type state struct {
		tally
		blocks    map[uint32]int64
		successor map[uint32]uint32
		lastAddr  uint32
		seen      bool
	}
	states := make([]state, n)
	for i := range states {
		states[i].blocks = make(map[uint32]int64)
		states[i].strides = make(map[int32]int64)
		states[i].successor = make(map[uint32]uint32)
	}
	for _, a := range t.Accesses {
		if int(a.DS) >= n {
			continue
		}
		st := &states[a.DS]
		st.count++
		st.bytes += int64(a.Size)
		if a.Kind == trace.Store {
			st.stores++
		}
		block := a.Addr / 32
		if last, ok := st.blocks[block]; ok {
			st.gapHist[log2u64(uint64(st.count-last))]++
			st.reuses++
		}
		st.blocks[block] = st.count
		if st.seen {
			delta := int32(a.Addr) - int32(st.lastAddr)
			if delta != 0 {
				st.strides[delta]++
			}
			if delta > 0 && delta <= 16 {
				st.smallPos++
			}
			st.transitions++
			if prev, ok := st.successor[st.lastAddr]; ok && prev == a.Addr {
				st.consistent++
			}
			st.successor[st.lastAddr] = a.Addr
		}
		st.lastAddr = a.Addr
		st.seen = true
	}
	tallies := make([]tally, n)
	for i := range states {
		states[i].footprint = int64(len(states[i].blocks))
		tallies[i] = states[i].tally
	}
	return summarize(t, tallies)
}

func assertMatchesReference(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	got, want := Analyze(tr), analyzeReference(tr)
	if !reflect.DeepEqual(got.Stats, want.Stats) || got.Total != want.Total || got.Trace != want.Trace {
		t.Fatalf("%s: Analyze differs from the map reference:\n got %+v\nwant %+v", name, got.Stats, want.Stats)
	}
}

func TestAnalyzeMatchesReference(t *testing.T) {
	benches := []workload.Workload{workload.Compress{}, workload.Vocoder{}, workload.Li{}}
	for _, w := range benches {
		for _, seed := range []int64{42, 7} {
			cfg := workload.DefaultConfig()
			cfg.Seed = seed
			tr := w.Generate(cfg)
			assertMatchesReference(t, tr.Name, tr)
		}
	}
	for kind := workload.SynStream; kind <= workload.SynRandom; kind++ {
		for _, seed := range []int64{1, 9} {
			assertMatchesReference(t, "synthetic", workload.Synthetic(kind, 20_000, 16<<10, seed))
		}
	}
}

// edgeTrace builds an unvalidated trace straight from its registry and
// accesses.
func edgeTrace(ds []trace.DSInfo, acc []trace.Access) *trace.Trace {
	return &trace.Trace{Name: "edge", DS: ds, Accesses: acc}
}

func TestAnalyzeMatchesReferenceEdges(t *testing.T) {
	anon := trace.DSInfo{Name: "anon"}
	cases := []struct {
		name string
		tr   *trace.Trace
	}{
		{"anonymous accesses", edgeTrace(
			[]trace.DSInfo{anon, {Name: "a", Base: 0x1000, Size: 256}},
			[]trace.Access{{Addr: 0x40}, {Addr: 0x1000, DS: 1, Size: 4}, {Addr: 0x44}, {Addr: 0x1004, DS: 1, Size: 4}, {Addr: 0x40}},
		)},
		{"unknown DS id", edgeTrace(
			[]trace.DSInfo{anon, {Name: "a", Base: 0x1000, Size: 256}},
			[]trace.Access{{Addr: 0x1000, DS: 1, Size: 4}, {Addr: 0x1000, DS: 2, Size: 4}, {Addr: 0x1008, DS: 7, Size: 4}, {Addr: 0x1008, DS: 1, Size: 4}},
		)},
		{"out-of-region accesses", edgeTrace(
			[]trace.DSInfo{anon, {Name: "a", Base: 0x1000, Size: 64}},
			[]trace.Access{
				{Addr: 0x1000, DS: 1, Size: 4}, {Addr: 0x0ff0, DS: 1, Size: 4}, {Addr: 0x1040, DS: 1, Size: 4},
				{Addr: 0x1000, DS: 1, Size: 4}, {Addr: 0x0ff0, DS: 1, Size: 4}, {Addr: 0x1040, DS: 1, Size: 4},
				{Addr: 0xffffffff, DS: 1, Size: 1}, {Addr: 0, DS: 1, Size: 1}, {Addr: 0xffffffff, DS: 1, Size: 1}, {Addr: 0, DS: 1, Size: 1},
			},
		)},
		{"unaligned region base", edgeTrace(
			// Blocks 0x80 and 0x82 straddle the region's ends: the
			// in-region and out-of-region accesses to them must share
			// one last-touch ordinal.
			[]trace.DSInfo{anon, {Name: "a", Base: 0x1013, Size: 45}},
			[]trace.Access{
				{Addr: 0x1013, DS: 1, Size: 1}, {Addr: 0x1001, DS: 1, Size: 1}, {Addr: 0x103f, DS: 1, Size: 1},
				{Addr: 0x1041, DS: 1, Size: 1}, {Addr: 0x1013, DS: 1, Size: 1}, {Addr: 0x1001, DS: 1, Size: 1},
			},
		)},
		{"oversized region", edgeTrace(
			[]trace.DSInfo{anon, {Name: "big", Base: 0x1000_0000, Size: denseRegionCap + 1}, {Name: "a", Base: 0x2000_0000, Size: 64}},
			[]trace.Access{
				{Addr: 0x1000_0000, DS: 1, Size: 8}, {Addr: 0x1040_0000, DS: 1, Size: 8}, {Addr: 0x2000_0000, DS: 2, Size: 4},
				{Addr: 0x1000_0000, DS: 1, Size: 8}, {Addr: 0x1040_0000, DS: 1, Size: 8}, {Addr: 0x2000_0004, DS: 2, Size: 4},
			},
		)},
		{"region wrapping the address space", edgeTrace(
			[]trace.DSInfo{anon, {Name: "w", Base: 0xffff_ffe0, Size: 64}},
			[]trace.Access{{Addr: 0xffff_fff0, DS: 1, Size: 4}, {Addr: 0x10, DS: 1, Size: 4}, {Addr: 0xffff_fff0, DS: 1, Size: 4}, {Addr: 0x10, DS: 1, Size: 4}},
		)},
		{"region at address 0", edgeTrace(
			// Address 0 follows an address whose successor was never
			// recorded: a zeroed successor slot must not read as a
			// match.
			[]trace.DSInfo{anon, {Name: "z", Base: 0, Size: 64}},
			[]trace.Access{{Addr: 0x10, DS: 1, Size: 4}, {Addr: 0, DS: 1, Size: 4}, {Addr: 0x14, DS: 1, Size: 4}, {Addr: 0, DS: 1, Size: 4}},
		)},
		{"no accesses", edgeTrace([]trace.DSInfo{anon, {Name: "a", Base: 0, Size: 32}}, nil)},
	}
	for _, c := range cases {
		assertMatchesReference(t, c.name, c.tr)
	}
}

// FuzzAnalyze builds a small unvalidated trace from the fuzz input —
// up to three regions with arbitrary bases and sizes (one of them
// possibly above the dense-table cap), then accesses that mostly land
// near a region, with DS ids that may be anonymous or unknown — and
// holds Analyze to the map reference.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{3, 0x10, 0x01, 0x00, 0x40, 0x00, 0x13, 0x05, 0x80, 0, 0x01, 0x00, 0x02, 0x01, 0x04, 0x00, 0x02, 0x04})
	f.Add([]byte{2, 0xff, 0xff, 0x00, 0x00, 0xff, 0x00, 0x00, 0x00, 0x01, 0x03, 0x02, 0x00, 0x03, 0x02, 0x01, 0x01})
	f.Add([]byte{1, 0x00, 0x00, 0x20, 0x00, 0x08, 0x00, 0x01, 0x08, 0x00, 0x01, 0x10, 0x00, 0x01, 0x08, 0x00, 0x01, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		nds := int(data[0]%3) + 1
		data = data[1:]
		ds := []trace.DSInfo{{Name: "anon"}}
		for i := 0; i < nds && len(data) >= 5; i++ {
			base := uint32(binary.LittleEndian.Uint16(data)) << 8
			base |= uint32(data[4] & 0x1f)
			size := uint32(binary.LittleEndian.Uint16(data[2:])) + 1
			if data[4]&0x80 != 0 {
				size = denseRegionCap + size
			}
			ds = append(ds, trace.DSInfo{Name: "r", Base: base, Size: size})
			data = data[5:]
		}
		var acc []trace.Access
		for ; len(data) >= 3; data = data[3:] {
			id := int(data[0]) % (len(ds) + 1)
			var near uint32
			if id < len(ds) {
				near = ds[id].Base
			}
			off := uint32(int8(data[1])) * 4
			if data[0]&0x80 != 0 {
				off += uint32(data[2]) << 8 // far, often outside the region
			}
			acc = append(acc, trace.Access{
				Addr: near + off + uint32(data[2]&3),
				DS:   trace.DSID(id),
				Kind: trace.Kind(data[2] >> 7),
				Size: 1 << (data[2] >> 5 & 3),
			})
		}
		assertMatchesReference(t, "fuzz", edgeTrace(ds, acc))
	})
}

var benchProfile *Profile

func BenchmarkAnalyze(b *testing.B) {
	for _, w := range []workload.Workload{workload.Compress{}, workload.Li{}} {
		tr := w.Generate(workload.DefaultConfig())
		b.Run(tr.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchProfile = Analyze(tr)
			}
		})
	}
}
