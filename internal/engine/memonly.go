package engine

import (
	"context"
	"sync"

	"memorex/internal/mem"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// memOnlyEntry is one mem-only memoization slot (single-flight, like
// entry): the ideal-interconnect simulation of one (trace, memory
// architecture).
type memOnlyEntry struct {
	done chan struct{}
	res  *sim.MemOnlyResult
	err  error
}

// RunMemOnly runs the connectivity-free simulation (sim.RunMemOnly) of
// every architecture on the engine's worker bound and returns the
// results in input order. It is the APEX sweep: one ideal-interconnect
// pass per memory architecture, whose miss ratios rank the
// architectures and whose per-channel traffic labels their BRGs.
//
// Each result is memoized single-flight under the content fingerprint
// of (trace, memory architecture), so an architecture the engine has
// already simulated on an equal trace — in this request's APEX sweep,
// or in an earlier request's — is served without simulating it again.
// Results are shared between callers and must not be modified.
// Failures are not memoized.
//
// Architectures are scheduled in order; once one fails or ctx is done
// no new one starts. The error returned is the first failure in
// architecture order (every earlier architecture was already running),
// or ctx.Err() when cancellation cut the sweep short. The sweep is not
// counted in Stats; the registry counts engine/memonly/runs and
// engine/memonly/hits.
func (e *Engine) RunMemOnly(ctx context.Context, t *trace.Trace, archs []*mem.Architecture) ([]*sim.MemOnlyResult, error) {
	out := make([]*sim.MemOnlyResult, len(archs))
	errs := make([]error, len(archs))
	traceFP := e.traceFingerprint(t)
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
			// The caller's ctx, not bctx: a sibling's failure stops new
			// work but does not abandon a wait on an in-flight run.
			if out[i], errs[i] = e.memOnly(ctx, traceFP, t, arch); errs[i] != nil {
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

// memOnly returns the mem-only simulation of arch on t (whose content
// fingerprint is traceFP), running it on first use and serving
// concurrent duplicates single-flight. A waiter gives up when ctx is
// done.
func (e *Engine) memOnly(ctx context.Context, traceFP uint64, t *trace.Trace, arch *mem.Architecture) (*sim.MemOnlyResult, error) {
	// hashMem, not the pointer-cached memFingerprint: a sweep's
	// architectures are built afresh per request, and caching their
	// digests by pointer would pin every one of them (module state
	// included) for the engine's lifetime.
	key := memOnlyKey(traceFP, hashMem(arch))
	e.mu.Lock()
	if ent, ok := e.memOnlyMemo[key]; ok {
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if ent.err != nil {
			return nil, ent.err
		}
		e.m.memOnlyHits.Inc()
		return ent.res, nil
	}
	ent := &memOnlyEntry{done: make(chan struct{})}
	e.memOnlyMemo[key] = ent
	e.mu.Unlock()

	e.m.memOnlyRuns.Inc()
	ent.res, ent.err = sim.RunMemOnly(t, arch)
	if ent.err != nil {
		e.mu.Lock()
		delete(e.memOnlyMemo, key) // failures are not memoized
		e.mu.Unlock()
	}
	close(ent.done)
	return ent.res, ent.err
}
