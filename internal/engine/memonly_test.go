package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/sim"
)

func memOnlyArchs() []*mem.Architecture {
	var archs []*mem.Architecture
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		archs = append(archs, testArch(size))
	}
	return archs
}

// The sweep returns exactly the serial sim.RunMemOnly results, in
// input order, at any worker count, and leaves the stats untouched.
func TestRunMemOnlyMatchesSerial(t *testing.T) {
	tr := testTrace(t)
	archs := memOnlyArchs()
	want := make([]*sim.MemOnlyResult, len(archs))
	for i, a := range archs {
		r, err := sim.RunMemOnly(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4} {
		e := New(workers)
		got, err := e.RunMemOnly(context.Background(), tr, archs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep differs from serial RunMemOnly", workers)
		}
		if st := e.Stats(); !reflect.DeepEqual(st, Stats{}) {
			t.Fatalf("workers=%d: sweep touched the stats: %+v", workers, st)
		}
	}
}

// With several invalid architectures the error is always the first
// failing one in input order, whatever finishes first.
func TestRunMemOnlyFirstErrorByIndex(t *testing.T) {
	tr := testTrace(t)
	archs := memOnlyArchs()
	archs[1].DRAM, archs[1].Name = nil, "bad1"
	archs[3].DRAM, archs[3].Name = nil, "bad3"
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 5; rep++ {
			_, err := New(workers).RunMemOnly(context.Background(), tr, archs)
			if err == nil || !strings.Contains(err.Error(), `"bad1"`) {
				t.Fatalf("workers=%d: err = %v, want the bad1 architecture's", workers, err)
			}
		}
	}
}

func TestRunMemOnlyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(2).RunMemOnly(ctx, testTrace(t), memOnlyArchs())
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled sweep = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

func memOnlyEngine(workers int) (*Engine, *obs.Registry) {
	reg := obs.NewRegistry()
	return New(workers, WithMetrics(reg)), reg
}

func memOnlyCounts(reg *obs.Registry) (runs, hits int64) {
	c := reg.Snapshot().Counters
	return c["engine/memonly/runs"], c["engine/memonly/hits"]
}

// The memo is keyed by content: an independently regenerated trace and
// freshly built architectures hit it, a prefix of the trace does not,
// and a hit is the very result a fresh simulation gives.
func TestRunMemOnlyMemoByContent(t *testing.T) {
	e, reg := memOnlyEngine(2)
	ctx := context.Background()
	first, err := e.RunMemOnly(ctx, testTrace(t), memOnlyArchs())
	if err != nil {
		t.Fatal(err)
	}
	if runs, hits := memOnlyCounts(reg); runs != 5 || hits != 0 {
		t.Fatalf("cold sweep: runs=%d hits=%d, want 5 and 0", runs, hits)
	}
	again := testTrace(t)
	got, err := e.RunMemOnly(ctx, again, memOnlyArchs())
	if err != nil {
		t.Fatal(err)
	}
	if runs, hits := memOnlyCounts(reg); runs != 5 || hits != 5 {
		t.Fatalf("regenerated trace: runs=%d hits=%d, want 5 and 5", runs, hits)
	}
	for i, a := range memOnlyArchs() {
		if got[i] != first[i] {
			t.Fatalf("arch %d: hit is not the memoized result", i)
		}
		fresh, err := sim.RunMemOnly(again, a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], fresh) {
			t.Fatalf("arch %d: memo hit differs from a fresh sim.RunMemOnly", i)
		}
	}
	if _, err := e.RunMemOnly(ctx, again.Slice(0, 10_000), memOnlyArchs()); err != nil {
		t.Fatal(err)
	}
	if runs, hits := memOnlyCounts(reg); runs != 10 || hits != 5 {
		t.Fatalf("prefix trace: runs=%d hits=%d, want 10 and 5", runs, hits)
	}
	if st := e.Stats(); !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("memoized sweep touched the stats: %+v", st)
	}
}

// Concurrent sweeps of one architecture run it exactly once.
func TestRunMemOnlySingleFlight(t *testing.T) {
	e, reg := memOnlyEngine(4)
	tr := testTrace(t)
	const n = 8
	res := make([]*sim.MemOnlyResult, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := e.RunMemOnly(context.Background(), tr, []*mem.Architecture{testArch(4 << 10)})
			if err != nil {
				t.Error(err)
				return
			}
			res[g] = out[0]
		}(g)
	}
	wg.Wait()
	if runs, hits := memOnlyCounts(reg); runs != 1 || hits != n-1 {
		t.Fatalf("runs=%d hits=%d, want 1 and %d", runs, hits, n-1)
	}
	for g := 1; g < n; g++ {
		if res[g] != res[0] {
			t.Fatalf("goroutine %d got a different result object", g)
		}
	}
}

// A failing architecture is simulated (and fails) again on every call.
func TestRunMemOnlyFailureNotMemoized(t *testing.T) {
	e, reg := memOnlyEngine(2)
	tr := testTrace(t)
	for call := 1; call <= 2; call++ {
		bad := testArch(4 << 10)
		bad.DRAM = nil
		if _, err := e.RunMemOnly(context.Background(), tr, []*mem.Architecture{bad}); err == nil {
			t.Fatal("invalid architecture simulated without error")
		}
		if runs, hits := memOnlyCounts(reg); runs != int64(call) || hits != 0 {
			t.Fatalf("call %d: runs=%d hits=%d, want %d and 0", call, runs, hits, call)
		}
	}
}

// A waiter on another caller's in-flight run gives up with its own
// context.
func TestRunMemOnlyWaiterHonoursContext(t *testing.T) {
	e := New(1)
	tr := testTrace(t)
	arch := testArch(4 << 10)
	traceFP := e.traceFingerprint(tr)
	// An owner that never finishes.
	e.memOnlyMemo[memOnlyKey(traceFP, hashMem(arch))] = &memOnlyEntry{done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.memOnly(ctx, traceFP, tr, arch); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

var benchMemOnly []*sim.MemOnlyResult

// BenchmarkRunMemOnly times the five-architecture sweep on a fresh
// engine (every architecture simulated) and on a warm one (every
// architecture a memo hit, warmed on an equal, independently built
// trace and architectures).
func BenchmarkRunMemOnly(b *testing.B) {
	tr := testTrace(b)
	archs := memOnlyArchs()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := New(2).RunMemOnly(context.Background(), tr, archs)
			if err != nil {
				b.Fatal(err)
			}
			benchMemOnly = out
		}
	})
	b.Run("hit", func(b *testing.B) {
		e := New(2)
		if _, err := e.RunMemOnly(context.Background(), testTrace(b), memOnlyArchs()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := e.RunMemOnly(context.Background(), tr, archs)
			if err != nil {
				b.Fatal(err)
			}
			benchMemOnly = out
		}
	})
}
