package rtable_test

import (
	"testing"

	"memorex/internal/connect"
	"memorex/internal/rtable"
)

// fuzzShapes are the stage lists the replay paths hand a scheduler:
// every library component's Stages(n) over the transfer sizes the
// replays see, the shape of a non-split off-chip transaction held
// through the DRAM dead time (arbiter and data path for arbitration +
// DRAM + data cycles, clamped to the table window), and a zero-timing
// non-pipelined component that holds its arbiter one cycle longer
// than its transfer takes.
func fuzzShapes() [][]rtable.Stage {
	comps := append(connect.Library(), connect.Component{
		Name: "zero", Class: connect.APB, WidthBytes: 4, MaxPorts: 16, OnChip: true,
	})
	var out [][]rtable.Stage
	for i := range comps {
		c := &comps[i]
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 256} {
			out = append(out, c.Stages(n))
			for _, dram := range []int{0, 6, 20, 60} {
				total := c.ArbCycles + dram + c.Beats(n)*c.BeatCycles
				if total > 62 {
					total = 62
				}
				out = append(out, []rtable.Stage{{Res: 0, Start: 0, Len: total}, {Res: 1, Start: 0, Len: total}})
			}
		}
	}
	return out
}

// FuzzSchedulerMatchesReference plays a request sequence against the
// Scheduler and the frozen ReferenceScheduler and requires the same
// grant for every request and the same Stats throughout. Each request
// is three input bytes: the stage shape, how its asking cycle moves
// (in order, chained after the previous grant, repeated, out of order,
// or jumping past the 4096-cycle window either way), and whether it
// goes through EarliestIssue or a separate Grant and Reserve. On the
// Grant path a request the scheduler reports Idle must be granted at
// its asking cycle with no conflict.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 8, 1, 2, 16, 0})
	f.Add([]byte{40, 1, 1, 40, 1, 0, 41, 4, 9, 42, 3, 2, 43, 5, 1, 44, 7, 3})
	f.Add([]byte{200, 9, 1, 17, 1, 1, 33, 12, 5, 90, 6, 0, 91, 4, 200, 91, 2, 1, 17, 7, 7})
	f.Add([]byte{3, 0, 1, 3, 0, 1, 3, 0, 1, 3, 4, 255, 3, 0, 1, 3, 5, 3, 3, 7, 0, 3, 1, 1})
	shapes := fuzzShapes()
	f.Fuzz(func(t *testing.T, data []byte) {
		got := rtable.NewScheduler(connect.NumResources())
		want := rtable.NewReferenceScheduler(connect.NumResources())
		var at, lastGrant, lastEnd int64
		for i := 0; i+2 < len(data); i += 3 {
			stages := shapes[int(data[i])%len(shapes)]
			end := rtable.Makespan(stages)
			mode, arg := data[i+1], int64(data[i+2])
			switch mode % 8 {
			case 0, 1, 2:
				at += int64(mode >> 3) // in order
			case 3:
				at = lastGrant + lastEnd // chained after the previous transfer
			case 4:
				at -= arg * 4 // out of order, within the window
			case 5:
				at += 4096 + arg*64 // past the window
			case 6:
				at += 1 << 20
			case 7:
				at -= 4096 + arg*64 // behind the window, possibly negative
			}
			before := got.Stats()
			var g int64
			if arg&1 == 0 {
				g = got.EarliestIssue(at, stages)
			} else {
				idle := got.Idle(at, end)
				g = got.Grant(at, stages)
				if idle && (g != at || got.Stats().Conflicts != before.Conflicts) {
					t.Fatalf("request %d: Idle at %d but Grant = %d with %d new conflicts",
						i/3, at, g, got.Stats().Conflicts-before.Conflicts)
				}
				got.Reserve(g, stages)
			}
			w := want.EarliestIssue(at, stages)
			if g != w {
				t.Fatalf("request %d at %d %v: grant %d, reference %d", i/3, at, stages, g, w)
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("request %d: stats %+v, reference %+v", i/3, got.Stats(), want.Stats())
			}
			lastGrant, lastEnd = g, int64(end)
		}
	})
}
