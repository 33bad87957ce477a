package apex

import (
	"reflect"
	"testing"

	"memorex/internal/engine"
	"memorex/internal/mem"
	"memorex/internal/profile"
	"memorex/internal/sim"
	"memorex/internal/workload"
)

// smallConfig keeps unit tests fast.
func smallConfig() Config {
	return Config{
		CacheSizes:  []int{1 << 10, 4 << 10, 16 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{32},
		MaxCustom:   2,
		SRAMLimit:   80 << 10,
		MaxSelected: 5,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.CacheSizes = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cache sweep accepted")
	}
	bad = DefaultConfig()
	bad.MaxCustom = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("huge MaxCustom accepted")
	}
	bad = DefaultConfig()
	bad.MaxSelected = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MaxSelected accepted")
	}
}

func TestExploreCompress(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	prof := profile.Analyze(tr)
	res, err := Explore(tr, prof, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) < 12 {
		t.Fatalf("exploration evaluated only %d designs", len(res.All))
	}
	if len(res.Selected) == 0 || len(res.Selected) > 5 {
		t.Fatalf("selected %d designs, want 1..5", len(res.Selected))
	}
	// Selected points must be sorted by cost and strictly improving in
	// miss ratio (a pareto front).
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i].Gates <= res.Selected[i-1].Gates {
			t.Fatal("selected designs not sorted by ascending cost")
		}
		if res.Selected[i].MissRatio >= res.Selected[i-1].MissRatio {
			t.Fatal("selected designs not strictly improving in miss ratio")
		}
	}
	// All selected architectures must validate and include a cache.
	for _, dp := range res.Selected {
		if err := dp.Arch.Validate(); err != nil {
			t.Fatalf("selected architecture invalid: %v", err)
		}
	}
	if res.EvaluatedAccesses == 0 {
		t.Fatal("no exploration work recorded")
	}
}

func TestExploreFindsCustomModulesHelp(t *testing.T) {
	// On compress, the best selected architectures should include at
	// least one with a custom module (the paper's architectures c..k).
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	res, err := Explore(tr, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	foundCustom := false
	for _, dp := range res.Selected {
		if len(dp.Arch.Modules) > 1 {
			foundCustom = true
		}
	}
	if !foundCustom {
		t.Fatal("no selected architecture uses a custom memory module")
	}
}

func TestExploreMissRatioMonotoneInCache(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	cfg := Config{
		CacheSizes:  []int{1 << 10, 32 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   0,
		MaxSelected: 5,
	}
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2 {
		t.Fatalf("want exactly 2 designs, got %d", len(res.All))
	}
	small, big := res.All[0], res.All[1]
	if small.Gates > big.Gates {
		small, big = big, small
	}
	if big.MissRatio >= small.MissRatio {
		t.Fatalf("32k cache should miss less than 1k: %.4f vs %.4f", big.MissRatio, small.MissRatio)
	}
}

func TestExploreVocoderUsesStreamModules(t *testing.T) {
	tr := workload.Vocoder{}.Generate(workload.DefaultConfig())
	prof := profile.Analyze(tr)
	res, err := Explore(tr, prof, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Some evaluated design must carry a stream buffer or SRAM (vocoder
	// is stream/table dominated).
	found := false
	for _, dp := range res.All {
		for _, m := range dp.Arch.Modules {
			if m.Kind() == mem.KindStream || m.Kind() == mem.KindSRAM {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("vocoder exploration never proposed stream/SRAM modules")
	}
}

func TestThinKeepsEndpoints(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	res, err := Explore(tr, nil, Config{
		CacheSizes:  []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{16, 32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) > 3 {
		t.Fatalf("thinning failed: %d selected", len(res.Selected))
	}
}

func TestExploreRejectsBadConfig(t *testing.T) {
	tr := workload.Synthetic(workload.SynStream, 100, 1024, 1)
	if _, err := Explore(tr, nil, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestExploreVictimVariants(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	cfg := smallConfig()
	cfg.VictimLines = 4
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Explore(tr, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2*len(plain.All) {
		t.Fatalf("victim sweep should double the space: %d vs %d", len(res.All), len(plain.All))
	}
	// Victim variants must exist and never miss more than their plain
	// counterpart of the same configuration.
	found := false
	for _, dp := range res.All {
		vc, ok := dp.Arch.Modules[0].(*mem.VictimCache)
		if !ok {
			continue
		}
		found = true
		for _, other := range res.All {
			if other.Arch.Modules[0].Name() == vc.Cache.Name() &&
				other.Arch.Name[len(other.Arch.Name)-2:] == dp.Arch.Name[len(dp.Arch.Name)-2:] {
				if dp.MissRatio > other.MissRatio+1e-9 {
					t.Fatalf("victim variant misses more than plain: %v vs %v",
						dp.MissRatio, other.MissRatio)
				}
			}
		}
	}
	if !found {
		t.Fatal("no victim variants generated")
	}
}

func TestExploreWriteThroughSweep(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	cfg := smallConfig()
	cfg.SweepWriteThrough = true
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wt, wb int
	for _, dp := range res.All {
		c, ok := dp.Arch.Modules[0].(*mem.Cache)
		if !ok {
			continue
		}
		if c.Policy == mem.WriteThrough {
			wt++
		} else {
			wb++
		}
	}
	if wt == 0 || wt != wb {
		t.Fatalf("write-through sweep should mirror the write-back space: %d wt vs %d wb", wt, wb)
	}
}

func TestExploreL2Sweep(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	cfg := smallConfig()
	cfg.L2Sizes = []int{32 << 10}
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Explore(tr, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2*len(plain.All) {
		t.Fatalf("L2 sweep should double the space: %d vs %d", len(res.All), len(plain.All))
	}
	// Every L2 variant must cut the off-chip traffic of its base.
	for _, dp := range res.All {
		if dp.Arch.L2 == nil {
			continue
		}
		for _, other := range res.All {
			if other.Arch.L2 == nil && dp.Arch.Name == other.Arch.Name+"+l2-32k" {
				if dp.OffChipBytesPerAccess >= other.OffChipBytesPerAccess {
					t.Fatalf("%s: L2 did not cut off-chip traffic (%.3f vs %.3f)",
						dp.Arch.Name, dp.OffChipBytesPerAccess, other.OffChipBytesPerAccess)
				}
			}
		}
	}
}

func TestExploreMaxSelectedOne(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 30_000)
	cfg := smallConfig()
	cfg.MaxSelected = 1
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("MaxSelected=1 returned %d designs", len(res.Selected))
	}
}

// The sweep runs on the engine's workers but its result must not
// depend on how many there are.
func TestExploreWorkerCountInvariant(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	type point struct {
		Name      string
		Gates     float64
		MissRatio float64
		OffChip   float64
		MemOnly   *sim.MemOnlyResult
	}
	project := func(dps []DesignPoint) []point {
		out := make([]point, len(dps))
		for i, dp := range dps {
			out[i] = point{dp.Arch.Name, dp.Gates, dp.MissRatio, dp.OffChipBytesPerAccess, dp.MemOnly}
		}
		return out
	}
	var all, sel [][]point
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.Engine = engine.New(workers)
		res, err := Explore(tr, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != tr {
			t.Fatal("Result.Trace is not the explored trace")
		}
		for _, dp := range res.All {
			if dp.MemOnly == nil || dp.MemOnly.MissRatio() != dp.MissRatio {
				t.Fatalf("%s: MemOnly missing or inconsistent with MissRatio", dp.Arch.Name)
			}
		}
		all = append(all, project(res.All))
		sel = append(sel, project(res.Selected))
	}
	if !reflect.DeepEqual(all[0], all[1]) {
		t.Fatal("All differs between 1 and 4 workers")
	}
	if !reflect.DeepEqual(sel[0], sel[1]) {
		t.Fatal("Selected differs between 1 and 4 workers")
	}
}

// The engine is an execution handle: it never makes a config non-zero
// and survives normalization to the defaults.
func TestConfigEngineIsExecutionHandle(t *testing.T) {
	eng := engine.New(1)
	c := Config{Engine: eng}
	if !c.IsZero() {
		t.Fatal("a config holding only an engine is not zero")
	}
	n, err := c.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Engine != eng || n.MaxSelected != DefaultConfig().MaxSelected {
		t.Fatal("Normalize dropped the engine or the defaults")
	}
}
