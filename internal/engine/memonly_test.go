package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"memorex/internal/mem"
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
