package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// Fuzz-case flags of FuzzReplayBatchMatchesSimulator.
const (
	// fuzzL2 adds a shared L2, so module backing traffic crosses an
	// on-chip module<->L2 channel and an off-chip L2<->DRAM channel.
	fuzzL2 = 1 << iota
	// fuzzDegenerate assigns degenerateOn/degenerateOff to every
	// cluster of the first arch: the one timing whose demand
	// reservation outlasts the leg it models.
	fuzzDegenerate
	// fuzzSplitOff assigns splitOff to every off-chip cluster of the
	// first arch.
	fuzzSplitOff
	// fuzzAllKinds gives the memory architecture one module of every
	// kind and routes a data structure to each.
	fuzzAllKinds
)

// Hand-built components the JSON and ADL parsers would reject but the
// replay paths must still time exactly. A zero-beat, zero-arbitration,
// non-pipelined bus transfers in zero cycles yet holds its arbiter for
// one, so its reservation ends after the transfer does. A split
// off-chip bus reaches the address/data phase path that no library
// off-chip component takes.
var (
	degenerateOn = connect.Component{
		Name: "zero-on", Class: connect.APB, WidthBytes: 4,
		ArbCycles: 0, BeatCycles: 0, Pipelined: false, MaxPorts: 16, OnChip: true,
		EnergyPerByte: 0.002,
	}
	degenerateOff = connect.Component{
		Name: "zero-off", Class: connect.OffChip, WidthBytes: 4,
		ArbCycles: 0, BeatCycles: 0, Pipelined: false, MaxPorts: 16, OnChip: false,
		EnergyPerByte: 0.02,
	}
	splitOff = connect.Component{
		Name: "split-off", Class: connect.OffChip, WidthBytes: 4,
		ArbCycles: 1, BeatCycles: 1, Pipelined: true, Split: true, MaxPorts: 16, OnChip: false,
		EnergyPerByte: 0.03,
	}
)

var (
	fuzzTracesOnce sync.Once
	fuzzTraces     []*trace.Trace
)

// fuzzTrace returns a short slice of one of the paper workloads, chosen
// and placed by rng.
func fuzzTrace(rng *rand.Rand) *trace.Trace {
	fuzzTracesOnce.Do(func() {
		cfg := workload.DefaultConfig()
		for _, w := range []workload.Workload{workload.Compress{}, workload.Li{}, workload.Vocoder{}} {
			fuzzTraces = append(fuzzTraces, w.Generate(cfg).Slice(0, 60_000))
		}
	})
	tr := fuzzTraces[rng.Intn(len(fuzzTraces))]
	n := 500 + rng.Intn(3000)
	lo := rng.Intn(tr.NumAccesses() - n)
	return tr.Slice(lo, lo+n)
}

// fuzzMemArch builds a small memory architecture over tr's data
// structures: a cache serving the default route plus, at rng's choice
// or all of them under fuzzAllKinds, an SRAM, a stream buffer and a
// self-indirect DMA, with every data structure routed to a random
// module or straight to DRAM.
func fuzzMemArch(rng *rand.Rand, tr *trace.Trace, flags uint8) *mem.Architecture {
	all := flags&fuzzAllKinds != 0
	m := &mem.Architecture{
		Name:    "fuzz",
		Modules: []mem.Module{mem.MustCache(512<<rng.Intn(4), 16<<rng.Intn(2), 1+rng.Intn(2))},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{},
	}
	if all || rng.Intn(2) == 0 {
		m.Modules = append(m.Modules, mem.MustSRAM(4096))
	}
	if all || rng.Intn(4) != 0 {
		m.Modules = append(m.Modules, mem.MustStreamBuffer(16<<rng.Intn(2), 2+rng.Intn(6)))
	}
	if all || rng.Intn(2) == 0 {
		m.Modules = append(m.Modules, mem.MustSelfIndirectDMA(256, 8<<rng.Intn(2), rng.Float64()))
	}
	if flags&fuzzL2 != 0 {
		m.L2 = mem.MustCache(8192, 32, 2)
	}
	for ds := 0; ds <= len(tr.DS); ds++ {
		r := rng.Intn(len(m.Modules) + 1)
		if r == len(m.Modules) {
			if rng.Intn(3) != 0 {
				continue // default route
			}
			r = mem.DirectDRAM
		}
		m.Route[trace.DSID(ds)] = r
	}
	if all {
		for j, mi := range rng.Perm(len(m.Modules)) {
			m.Route[trace.DSID(1+j)] = mi
		}
	}
	return m
}

// fuzzConnArch builds a random connectivity architecture for m: the
// on-chip and off-chip channels are each partitioned into up to three
// shared clusters, and each cluster gets a random component that fits
// it (library or hand-built), or force when it fits.
func fuzzConnArch(rng *rand.Rand, m *mem.Architecture, forceOn, forceOff *connect.Component) *connect.Arch {
	pool := append(connect.Library(), degenerateOn, degenerateOff, splitOff)
	a := &connect.Arch{Channels: m.Channels()}
	for _, off := range []bool{false, true} {
		groups := make([][]int, 1+rng.Intn(3))
		for ch, c := range a.Channels {
			if c.OffChip == off {
				g := rng.Intn(len(groups))
				groups[g] = append(groups[g], ch)
			}
		}
		for _, cl := range groups {
			if len(cl) == 0 {
				continue
			}
			force := forceOn
			if off {
				force = forceOff
			}
			var comp connect.Component
			if force != nil && force.Fits(len(cl)+1, off) {
				comp = *force
			} else {
				var fits []connect.Component
				for _, c := range pool {
					if c.Fits(len(cl)+1, off) {
						fits = append(fits, c)
					}
				}
				comp = fits[rng.Intn(len(fits))]
			}
			a.Clusters = append(a.Clusters, cl)
			a.Assign = append(a.Assign, comp)
		}
	}
	return a
}

// FuzzReplayBatchMatchesSimulator is the differential gate of the
// batched replayer: on a random memory architecture, random
// connectivity candidates and a random trace slice, a full-mode
// capture replayed through ReplayBatch — as one K-member batch and as
// one-member batches — must equal the one-phase Simulator bit for bit,
// scheduler statistics included.
func FuzzReplayBatchMatchesSimulator(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), uint8(0), uint8(4))
	f.Add(int64(7), int64(11), int64(13), uint8(fuzzL2), uint8(6))
	f.Add(int64(5), int64(17), int64(19), uint8(fuzzDegenerate), uint8(3))
	f.Add(int64(23), int64(29), int64(31), uint8(fuzzL2|fuzzDegenerate), uint8(3))
	f.Add(int64(37), int64(41), int64(43), uint8(fuzzSplitOff), uint8(2))
	f.Add(int64(47), int64(53), int64(59), uint8(fuzzL2|fuzzSplitOff), uint8(1))
	f.Fuzz(func(t *testing.T, memSeed, connSeed, traceSeed int64, flags, k uint8) {
		tr := fuzzTrace(rand.New(rand.NewSource(traceSeed)))
		m := fuzzMemArch(rand.New(rand.NewSource(memSeed)), tr, flags)
		rng := rand.New(rand.NewSource(connSeed))
		conns := make([]*connect.Arch, 1+int(k)%6)
		for i := range conns {
			var on, off *connect.Component
			if i == 0 && flags&fuzzDegenerate != 0 {
				on, off = &degenerateOn, &degenerateOff
			}
			if i == 0 && flags&fuzzSplitOff != 0 {
				off = &splitOff
			}
			conns[i] = fuzzConnArch(rng, m, on, off)
			if err := conns[i].Validate(); err != nil {
				t.Fatalf("arch %d invalid: %v", i, err)
			}
		}
		bt, err := CaptureBehavior(tr, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ReplayBatch(bt, conns)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range conns {
			want := runExact(t, m, c, tr)
			if !reflect.DeepEqual(batch[i], want) {
				t.Errorf("arch %d (%s): K=%d batch diverged from Simulator:\n got %+v\nwant %+v",
					i, c.Describe(m), len(conns), batch[i], want)
			}
			single, err := ReplayBatch(bt, conns[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(single[0], want) {
				t.Errorf("arch %d (%s): K=1 batch diverged from Simulator:\n got %+v\nwant %+v",
					i, c.Describe(m), single[0], want)
			}
		}
	})
}
