package sim

import (
	"reflect"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/workload"
)

// batchConns builds the connectivity candidates the batch fidelity gate
// replays: one one-cluster-per-channel arch per library component (the
// off-chip entries paired with ahb32 on chip, mirroring
// TestReplayFidelityLibrary) plus a shared-cluster arch that maps all
// on-chip channels onto one bus, so cluster sharing and the off-chip
// split/dead-time paths are all exercised in one batch.
func batchConns(t *testing.T, m *mem.Architecture) []*connect.Arch {
	t.Helper()
	var conns []*connect.Arch
	for _, comp := range connect.Library() {
		on, off := comp.Name, "off32"
		if !comp.OnChip {
			on, off = "ahb32", comp.Name
		}
		conns = append(conns, buildConnT(t, m, on, off))
	}
	lib := connect.Library()
	ahb, err := connect.ByName(lib, "ahb32")
	if err != nil {
		t.Fatal(err)
	}
	off, err := connect.ByName(lib, "off16")
	if err != nil {
		t.Fatal(err)
	}
	chans := m.Channels()
	shared := &connect.Arch{Channels: chans}
	var on, offc []int
	for i, ch := range chans {
		if ch.OffChip {
			offc = append(offc, i)
		} else {
			on = append(on, i)
		}
	}
	shared.Clusters = [][]int{on, offc}
	shared.Assign = []connect.Component{ahb, off}
	if err := shared.Validate(); err != nil {
		t.Fatalf("shared-cluster arch invalid: %v", err)
	}
	return append(conns, shared)
}

// assertBatchExact replays the batch, and every arch again as a
// one-member batch (the production singleton path), and asserts each
// result is bit-exact against the per-arch reference Replay — every
// counter, the float energy accumulator, the latency histogram and the
// scheduler statistics included.
func assertBatchExact(t *testing.T, name string, bt *BehaviorTrace, conns []*connect.Arch) {
	t.Helper()
	batch, err := ReplayBatch(bt, conns)
	if err != nil {
		t.Fatalf("%s: ReplayBatch: %v", name, err)
	}
	if len(batch) != len(conns) {
		t.Fatalf("%s: ReplayBatch returned %d results for %d archs", name, len(batch), len(conns))
	}
	for i, c := range conns {
		ref, err := Replay(bt, c)
		if err != nil {
			t.Fatalf("%s[%d]: Replay: %v", name, i, err)
		}
		if !reflect.DeepEqual(batch[i], ref) {
			t.Errorf("%s[%d]: batch result diverged from Replay:\n got %+v\nwant %+v",
				name, i, batch[i], ref)
		}
		single, err := ReplayBatch(bt, conns[i:i+1])
		if err != nil {
			t.Fatalf("%s[%d]: one-member ReplayBatch: %v", name, i, err)
		}
		if !reflect.DeepEqual(single[0], ref) {
			t.Errorf("%s[%d]: one-member batch diverged from Replay:\n got %+v\nwant %+v",
				name, i, single[0], ref)
		}
	}
}

// TestReplayBatchMatchesReplay is the batch fidelity gate: for every
// connectivity architecture in the library — across module kinds
// (cache, stream buffer, DMA, direct DRAM), with and without a shared
// L2, on full and windowed captures — ReplayBatch must be bit-exact
// against per-arch Replay. The mismatched-channel and nil-arch error
// paths are covered below.
func TestReplayBatchMatchesReplay(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 40_000)
	for _, withL2 := range []bool{false, true} {
		m := richArch(withL2)
		conns := batchConns(t, m)
		name := "full"
		if withL2 {
			name = "full/l2"
		}
		bt, err := CaptureBehavior(tr, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchExact(t, name, bt, conns)

		// Windowed capture: gap resync state must also replay
		// identically through the batch path.
		var windows []Window
		const on, period = 2000, 20000
		for lo := 0; lo < tr.NumAccesses(); lo += period {
			hi := lo + on
			if hi > tr.NumAccesses() {
				hi = tr.NumAccesses()
			}
			windows = append(windows, Window{Lo: lo, Hi: hi})
		}
		wbt, err := CaptureBehavior(tr, m, windows)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchExact(t, name+"/windowed", wbt, conns)
	}

	// A prefetch-free architecture takes the fully scheduler-free path.
	m := cacheArch(4096)
	bt, err := CaptureBehavior(tr.Slice(0, 20_000), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchExact(t, "cache", bt, batchConns(t, m))
}

// TestReplayBatchErrors: an empty batch is a no-op, a nil member and a
// channel-mismatched member fail loudly with the member's index.
func TestReplayBatchErrors(t *testing.T) {
	m := richArch(false)
	tr := streamTrace(1000)
	bt, err := CaptureBehavior(tr, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayBatch(bt, nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch = (%v, %v); want (nil, nil)", res, err)
	}
	good := buildConnT(t, m, "ahb32", "off32")
	if _, err := ReplayBatch(bt, []*connect.Arch{good, nil}); err == nil {
		t.Fatal("nil batch member accepted")
	}
	other := cacheArch(4096)
	mismatched := buildConnT(t, other, "ahb32", "off32")
	_, err = ReplayBatch(bt, []*connect.Arch{good, mismatched})
	if err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if !strings.Contains(err.Error(), "batch arch 1") {
		t.Fatalf("mismatch error does not identify the member: %v", err)
	}
}
