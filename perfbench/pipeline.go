package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"memorex"
	"memorex/internal/apex"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/explore"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/pareto"
	"memorex/internal/profile"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// The traced run replays Explorer.Do's own sequence one layer call at a
// time, with a span around each call:
//
//	GenerateTrace -> profile.Analyze -> apex.Explore ->
//	core.Explore | explore.BuildSpace + explore.Run ->
//	pareto.Front -> Report.WriteJSON
//
// The engine-internal split comes from engine.Stats phases and registry
// counters read around each request. The traced run checks that this
// decomposed pipeline yields the same front as Explorer.Do.

// layerRecord is what one decomposed request measured.
type layerRecord struct {
	key      string
	repeat   bool
	accesses int
	wall     float64
	spanDur  map[string]float64 // measured span durations, by span name
	phases   map[string]float64 // engine phase wall in the request, seconds
	st       engine.Stats       // engine counters of the request (delta)
	counters map[string]int64   // registry counters of the request (delta)
	snap     obs.Snapshot       // registry snapshot when the request ended
	absent   map[string]bool    // counters the registry does not export
	// capturedAccesses is the number of trace accesses the request's
	// behavior captures walked (full captures plus sampled on-windows).
	capturedAccesses int64
	// estBusy and fullBusy are the engine's summed per-evaluation wall
	// time of sampled estimates and of full simulations, in seconds: the
	// time engine workers were busy on each, whichever driver asked.
	estBusy, fullBusy float64
	apexArchs         int
	frontDesigns      int
	jsonBytes         int
	search            *explore.SearchProvenance
	rep               *memorex.Report
	selected          []*mem.Architecture
	conex             core.Config
}

// resolveRequest merges a request over the Explorer defaults exactly as
// Explorer.Do does: absent blocks inherit, present blocks win.
func resolveRequest(req memorex.ExploreRequest) (workload.Config, apex.Config, core.Config, error) {
	wl, apexCfg, conexCfg := workload.DefaultConfig(), apex.DefaultConfig(), core.DefaultConfig()
	var err error
	if req.Workload != nil {
		if wl, err = req.Workload.Normalize(); err != nil {
			return wl, apexCfg, conexCfg, err
		}
	}
	if req.APEX != nil {
		if apexCfg, err = req.APEX.Normalize(); err != nil {
			return wl, apexCfg, conexCfg, err
		}
	}
	if req.Sampling != nil {
		if conexCfg.Sampling, err = req.Sampling.Normalize(); err != nil {
			return wl, apexCfg, conexCfg, err
		}
	}
	if req.KeepPerArch > 0 {
		conexCfg.KeepPerArch = req.KeepPerArch
	}
	if req.MaxAssignPerLevel != nil {
		conexCfg.MaxAssignPerLevel = *req.MaxAssignPerLevel
	}
	if req.Search != nil {
		conexCfg.Search = *req.Search
	}
	return wl, apexCfg, conexCfg, nil
}

// newEngine returns an instrumented engine like the one NewExplorer
// builds.
func newEngine() *engine.Engine {
	return engine.New(workers, engine.WithMetrics(obs.NewRegistry()))
}

// runPipeline runs one request through the decomposed pipeline on eng,
// recording spans under the request id.
func runPipeline(ctx context.Context, rec *recorder, reqID string, pr pipelineRequest, eng *engine.Engine) (*layerRecord, error) {
	req := pr.req
	if err := req.Validate(); err != nil {
		return nil, err
	}
	wl, apexCfg, conexCfg, err := resolveRequest(req)
	if err != nil {
		return nil, err
	}
	conexCfg.Engine = eng
	strategy := explore.Pruned
	if req.Strategy != "" {
		if strategy, err = explore.ParseStrategy(req.Strategy); err != nil {
			return nil, err
		}
	}
	lr := &layerRecord{key: pr.key, repeat: pr.repeat, spanDur: map[string]float64{}, conex: conexCfg}
	before, beforeSnap := eng.Stats(), eng.Metrics().Snapshot()

	root, endRoot := rec.begin(reqID, "request", 0)
	t0 := time.Now()
	step := func(name string, parent int, f func() error) error {
		s := time.Now()
		_, end := rec.begin(reqID, name, parent)
		err := f()
		end()
		lr.spanDur[name] += time.Since(s).Seconds()
		return err
	}

	var t *trace.Trace
	var prof *profile.Profile
	var apexRes *apex.Result
	rep := &memorex.Report{}
	err = step("workload.generate", root, func() (err error) {
		t, err = memorex.GenerateTrace(req.Benchmark, wl)
		return err
	})
	if err == nil {
		err = step("profile.analyze", root, func() error { prof = profile.Analyze(t); return nil })
	}
	if err == nil {
		err = step("apex.explore", root, func() (err error) {
			apexRes, err = apex.Explore(t, prof, apexCfg)
			return err
		})
	}
	var front []pareto.Point
	if err == nil && strategy == explore.Pruned {
		for _, dp := range apexRes.Selected {
			lr.selected = append(lr.selected, dp.Arch)
		}
		s := time.Now()
		id, end := rec.begin(reqID, "core.explore", root)
		rep.ConEx, err = core.Explore(ctx, t, lr.selected, conexCfg)
		end()
		lr.spanDur["core.explore"] += time.Since(s).Seconds()
		lr.derivedPhases(rec, reqID, id, before, eng.Stats(), map[string]string{
			"conex/estimate": "engine.estimate", "conex/full-sim": "engine.fullsim"})
	} else if err == nil {
		for _, dp := range apexRes.Selected {
			lr.selected = append(lr.selected, dp.Arch)
		}
		var sp *explore.Space
		_ = step("explore.build_space", root, func() error { sp = explore.BuildSpace(apexRes); return nil })
		var out *explore.Outcome
		s := time.Now()
		id, end := rec.begin(reqID, "explore.run", root)
		out, err = explore.Run(ctx, t, sp, strategy, conexCfg)
		end()
		lr.spanDur["explore.run"] += time.Since(s).Seconds()
		if err == nil {
			lr.derivedPhases(rec, reqID, id, before, eng.Stats(), map[string]string{"explore/search": "engine.search"})
			// Fold the outcome into a Result exactly as Explorer.Do does.
			res := &core.Result{Combined: out.Points, Stats: out.Stats}
			for _, p := range out.Front {
				res.CostPerfFront = append(res.CostPerfFront, *p.Meta.(*core.DesignPoint))
			}
			rep.ConEx, rep.Search = res, out.Search
			lr.search = out.Search
		}
	}
	if err == nil {
		err = step("pareto.front", root, func() error {
			front = pareto.Front(rep.ConEx.Points(), pareto.Cost, pareto.Latency)
			return nil
		})
	}
	if err == nil && len(front) != len(rep.ConEx.CostPerfFront) {
		err = fmt.Errorf("pareto.Front returned %d designs, the exploration's front has %d", len(front), len(rep.ConEx.CostPerfFront))
	}
	if err == nil {
		rep.Options = memorex.Options{Workload: req.Benchmark, WorkloadConfig: wl, APEX: apexCfg, ConEx: conexCfg}
		rep.Trace, rep.Profile, rep.APEX = t, prof, apexRes
		rep.Metrics = eng.Metrics().Snapshot()
		err = step("report.write_json", root, func() error {
			var buf bytes.Buffer
			err := rep.WriteJSON(&buf)
			lr.jsonBytes = buf.Len()
			return err
		})
	}
	endRoot()
	lr.wall = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}

	after, afterSnap := eng.Stats(), eng.Metrics().Snapshot()
	// The record outlives the request; let a private engine's captures go.
	rep.Options.ConEx.Engine, lr.conex.Engine = nil, nil
	lr.rep = rep
	lr.accesses = t.NumAccesses()
	lr.apexArchs = len(apexRes.All)
	lr.frontDesigns = len(rep.ConEx.CostPerfFront)
	lr.st = statsDelta(before, after)
	lr.snap = afterSnap
	lr.counters, lr.absent = countersDelta(beforeSnap, afterSnap)
	busy := func(name string) float64 {
		return (afterSnap.Histograms[name].Sum - beforeSnap.Histograms[name].Sum) / 1e6
	}
	lr.estBusy, lr.fullBusy = busy("engine/eval_wall_us/sampled"), busy("engine/eval_wall_us/full")
	if n := len(sampling.Plan(lr.accesses, conexCfg.Sampling)); n > 0 {
		sampledCaptures := lr.counters["sampling/windows"] / int64(n)
		fullCaptures := lr.st.BehaviorCaptures - sampledCaptures
		lr.capturedAccesses = fullCaptures*int64(lr.accesses) + lr.counters["sampling/on_accesses"]
	}
	return lr, nil
}

// derivedPhases records the engine phases the call under parent ran as
// derived child spans, and keeps their wall time.
func (lr *layerRecord) derivedPhases(rec *recorder, reqID string, parent int, before, after engine.Stats, names map[string]string) {
	if lr.phases == nil {
		lr.phases = map[string]float64{}
	}
	prev := map[string]time.Duration{}
	for _, p := range before.Phases {
		prev[p.Name] = p.Wall
	}
	for _, p := range after.Phases {
		d := p.Wall - prev[p.Name]
		lr.phases[p.Name] += d.Seconds()
		if span, ok := names[p.Name]; ok {
			rec.derived(reqID, span, parent, d)
		}
	}
}

// statsDelta returns the engine counters accumulated between two
// snapshots. Only the counters the benchmark reports are kept; counters
// of mechanisms that may be removed are read by name from the registry.
func statsDelta(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Requests:           b.Requests - a.Requests,
		Simulations:        b.Simulations - a.Simulations,
		CacheHits:          b.CacheHits - a.CacheHits,
		SampledSimulations: b.SampledSimulations - a.SampledSimulations,
		FullSimulations:    b.FullSimulations - a.FullSimulations,
		SampledAccesses:    b.SampledAccesses - a.SampledAccesses,
		FullAccesses:       b.FullAccesses - a.FullAccesses,
		BehaviorCaptures:   b.BehaviorCaptures - a.BehaviorCaptures,
		BehaviorCacheHits:  b.BehaviorCacheHits - a.BehaviorCacheHits,
		BatchReplays:       b.BatchReplays - a.BatchReplays,
		BatchedEvals:       b.BatchedEvals - a.BatchedEvals,
	}
}

// namedCounters are the registry counters the benchmark reads by name.
// A counter the program stops exporting reads as absent, not as an error.
var namedCounters = []string{
	"engine/batch/dispatches", "engine/batch/spills",
	"engine/delta/replays",
	"rtable/issues", "rtable/conflicts",
	"sampling/windows", "sampling/on_accesses",
	"explore/search/promotions",
}

func countersDelta(a, b obs.Snapshot) (map[string]int64, map[string]bool) {
	out, absent := map[string]int64{}, map[string]bool{}
	for _, n := range namedCounters {
		v, ok := b.Counters[n]
		if !ok {
			absent[n] = true
			continue
		}
		out[n] = v - a.Counters[n]
	}
	return out, absent
}

// frontLabels renders a front for divergence messages.
func frontLabels(f []core.DesignPoint) string {
	var b strings.Builder
	for i := range f {
		fmt.Fprintf(&b, "[%s %v %v] ", f[i].Label(), f[i].Cost, f[i].Latency)
	}
	return b.String()
}
