package sim

import (
	"fmt"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// benchArch is a compress-style memory architecture: a cache on the
// default route plus a stream buffer and a self-indirect DMA, all three
// backed over off-chip channels.
func benchArch() *mem.Architecture {
	return &mem.Architecture{
		Name: "bench",
		Modules: []mem.Module{
			mem.MustCache(4096, 32, 2),
			mem.MustStreamBuffer(32, 8),
			mem.MustSelfIndirectDMA(512, 16, 0.8),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1, 2: 2},
		Default: 0,
	}
}

// benchConns returns k connectivity candidates for m, cycling through
// on-chip choices (one bus per CPU link or one shared bus) while every
// candidate puts the three off-chip backing channels on one shared
// bus. The prefetching modules make that bus contended, so the replay
// runs its reservation-table schedulers.
func benchConns(b *testing.B, m *mem.Architecture, k int) []*connect.Arch {
	b.Helper()
	lib := connect.Library()
	onNames := []string{"ahb32", "asb32", "apb32", "mux32", "ahb64", "ded32"}
	offNames := []string{"off32", "off16"}
	chans := m.Channels()
	var on, off []int
	for i, ch := range chans {
		if ch.OffChip {
			off = append(off, i)
		} else {
			on = append(on, i)
		}
	}
	out := make([]*connect.Arch, k)
	for i := range out {
		onComp, err := connect.ByName(lib, onNames[i%len(onNames)])
		if err != nil {
			b.Fatal(err)
		}
		offComp, err := connect.ByName(lib, offNames[(i/len(onNames))%len(offNames)])
		if err != nil {
			b.Fatal(err)
		}
		a := &connect.Arch{Channels: chans}
		if i%2 == 1 && onComp.MaxPorts > len(on) {
			a.Clusters = append(a.Clusters, on)
			a.Assign = append(a.Assign, onComp)
		} else {
			for _, ch := range on {
				a.Clusters = append(a.Clusters, []int{ch})
				a.Assign = append(a.Assign, onComp)
			}
		}
		a.Clusters = append(a.Clusters, off)
		a.Assign = append(a.Assign, offComp)
		if err := a.Validate(); err != nil {
			b.Fatal(err)
		}
		out[i] = a
	}
	return out
}

// BenchmarkReplayBatch times batched replay of a full compress capture
// at batch sizes 1, 8 and 32 and reports the cost per replayed event
// and architecture.
func BenchmarkReplayBatch(b *testing.B) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 100_000)
	m := benchArch()
	bt, err := CaptureBehavior(tr, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 8, 32} {
		conns := benchConns(b, m, k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReplayBatch(bt, conns); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(bt.NumEvents())*float64(k)), "ns/event/arch")
		})
	}
}
