package engine

import (
	"context"
	"sync"

	"memorex/internal/mem"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// RunMemOnly runs the connectivity-free simulation (sim.RunMemOnly) of
// every architecture on the engine's worker bound and returns the
// results in input order. It is the APEX sweep: one ideal-interconnect
// pass per memory architecture, whose miss ratios rank the
// architectures and whose per-channel traffic labels their BRGs.
//
// Architectures are scheduled in order; once one fails or ctx is done
// no new one starts. The error returned is the first failure in
// architecture order (every earlier architecture was already running),
// or ctx.Err() when cancellation cut the sweep short. The sweep is not
// memoized and not counted in Stats.
func (e *Engine) RunMemOnly(ctx context.Context, t *trace.Trace, archs []*mem.Architecture) ([]*sim.MemOnlyResult, error) {
	out := make([]*sim.MemOnlyResult, len(archs))
	errs := make([]error, len(archs))
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	started := 0
	for i, arch := range archs {
		select {
		case sem <- struct{}{}:
		case <-bctx.Done():
		}
		// The sem send can win the select against a done context;
		// re-check before starting work.
		if bctx.Err() != nil {
			break
		}
		started++
		wg.Add(1)
		go func(i int, arch *mem.Architecture) {
			defer wg.Done()
			defer func() { <-sem }()
			if out[i], errs[i] = sim.RunMemOnly(t, arch); errs[i] != nil {
				cancel()
			}
		}(i, arch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if started < len(archs) {
		return nil, ctx.Err()
	}
	return out, nil
}
