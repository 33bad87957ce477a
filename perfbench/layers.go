package main

import (
	"fmt"
	"sort"
	"strings"
)

// daemonLayer holds what daemon jobs measured, per job.
type daemonLayer struct {
	submitMs, fetchMs []float64
	queueWaitS, runS  []float64
	events            []float64
}

func (dl *daemonLayer) add(r jobResult) {
	dl.submitMs = append(dl.submitMs, r.submitMs)
	dl.fetchMs = append(dl.fetchMs, r.fetchMs)
	dl.queueWaitS = append(dl.queueWaitS, r.queueWaitS)
	dl.runS = append(dl.runS, r.runS)
	dl.events = append(dl.events, float64(r.events))
}

// engineWall is the wall time a request spent inside engine phases.
func (lr *layerRecord) engineWall() float64 {
	return lr.phases["conex/estimate"] + lr.phases["conex/full-sim"] + lr.phases["explore/search"]
}

// layerMetrics assembles the per-layer metrics of a traced run. Counts
// and times are means per traced request unless named a ratio or share;
// d holds the daemon jobs' timings.
func layerMetrics(recs []*layerRecord, p *probeResult, d *daemonLayer, overheadPct, coveragePct float64) []metric {
	per := func(f func(*layerRecord) float64) float64 {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return mean(xs)
	}
	sum := func(f func(*layerRecord) float64) float64 {
		var s float64
		for _, r := range recs {
			s += f(r)
		}
		return s
	}
	hist := func(name string, pick func(p50, p95, mean float64) float64) float64 {
		xs := make([]float64, 0, len(recs))
		for _, r := range recs {
			if h, ok := r.snap.Histograms[name]; ok && h.Count > 0 {
				xs = append(xs, pick(h.P50, h.P95, h.Mean))
			}
		}
		return median(xs)
	}
	counter := func(name string) float64 {
		return per(func(r *layerRecord) float64 { return float64(r.counters[name]) })
	}
	absentNote := func(name string) string {
		for _, r := range recs {
			if r.absent[name] {
				return "absent: the program no longer exports " + name
			}
		}
		return ""
	}
	engineWall := sum((*layerRecord).engineWall)
	simAccesses := sum(func(r *layerRecord) float64 { return float64(r.st.SampledAccesses + r.st.FullAccesses) })
	repeats := per(func(r *layerRecord) float64 {
		if r.repeat {
			return 1
		}
		return 0
	})

	return []metric{
		{Name: "workload.generate_s", Value: per(func(r *layerRecord) float64 { return r.spanDur["workload.generate"] }), Unit: "s"},
		{Name: "profile.analyze_s", Value: per(func(r *layerRecord) float64 { return r.spanDur["profile.analyze"] }), Unit: "s"},
		{Name: "apex.explore_s", Value: per(func(r *layerRecord) float64 { return r.spanDur["apex.explore"] }), Unit: "s"},
		{Name: "apex.archs", Value: per(func(r *layerRecord) float64 { return float64(r.apexArchs) }), Unit: "count"},
		{Name: "core.enumerate_s", Value: p.enumerateS, Unit: "s", Note: "sim probe request"},
		{Name: "core.candidates", Value: float64(p.candidates), Unit: "count", Note: "sim probe request"},
		{Name: "sim.capture_ns_per_access", Value: p.captureNs, Unit: "ns"},
		{Name: "sim.replay_ns_per_event_k1", Value: p.replayNs[0], Unit: "ns"},
		{Name: "sim.replay_ns_per_event_k8", Value: p.replayNs[1], Unit: "ns"},
		{Name: "sim.replay_ns_per_event_k32", Value: p.replayNs[2], Unit: "ns"},
		{Name: "rtable.issues", Value: counter("rtable/issues"), Unit: "count"},
		{Name: "rtable.conflict_ratio", Value: ratio(sum(func(r *layerRecord) float64 { return float64(r.counters["rtable/conflicts"]) }),
			sum(func(r *layerRecord) float64 { return float64(r.counters["rtable/issues"]) })), Unit: "ratio"},
		{Name: "engine.evaluations", Value: per(func(r *layerRecord) float64 { return float64(r.st.Requests) }), Unit: "count"},
		{Name: "engine.simulations", Value: per(func(r *layerRecord) float64 { return float64(r.st.Simulations) }), Unit: "count"},
		{Name: "engine.memo_hit_ratio", Value: ratio(sum(func(r *layerRecord) float64 { return float64(r.st.CacheHits) }),
			sum(func(r *layerRecord) float64 { return float64(r.st.Requests) })), Unit: "ratio"},
		{Name: "engine.captures", Value: per(func(r *layerRecord) float64 { return float64(r.st.BehaviorCaptures) }), Unit: "count"},
		{Name: "engine.capture_reuse_ratio", Value: ratio(sum(func(r *layerRecord) float64 { return float64(r.st.BehaviorCacheHits) }),
			sum(func(r *layerRecord) float64 { return float64(r.st.BehaviorCaptures + r.st.BehaviorCacheHits) })), Unit: "ratio"},
		{Name: "engine.batch_dispatches", Value: counter("engine/batch/dispatches"), Unit: "count", Note: absentNote("engine/batch/dispatches")},
		{Name: "engine.mean_batch_size", Value: ratio(sum(func(r *layerRecord) float64 { return float64(r.st.BatchedEvals) }),
			sum(func(r *layerRecord) float64 { return float64(r.st.BatchReplays) })), Unit: "count"},
		{Name: "engine.spills", Value: counter("engine/batch/spills"), Unit: "count", Note: absentNote("engine/batch/spills")},
		{Name: "engine.delta_replays", Value: counter("engine/delta/replays"), Unit: "count", Note: absentNote("engine/delta/replays")},
		{Name: "engine.estimate_busy_s", Value: per(func(r *layerRecord) float64 { return r.estBusy }), Unit: "s"},
		{Name: "engine.fullsim_busy_s", Value: per(func(r *layerRecord) float64 { return r.fullBusy }), Unit: "s"},
		{Name: "engine.sim_maccess_per_s", Value: ratio(simAccesses/1e6, engineWall), Unit: "Maccess/s"},
		{Name: "engine.evals_per_s", Value: ratio(sum(func(r *layerRecord) float64 { return float64(r.st.Requests) }), engineWall), Unit: "1/s"},
		{Name: "engine.eval_p50_us", Value: hist("engine/eval_wall_us/sampled", func(p50, _, _ float64) float64 { return p50 }), Unit: "us"},
		{Name: "engine.eval_p95_us", Value: hist("engine/eval_wall_us/sampled", func(_, p95, _ float64) float64 { return p95 }), Unit: "us"},
		{Name: "sampling.est_err_pct", Value: hist("sampling/est_err_pct", func(_, _, m float64) float64 { return m }), Unit: "%"},
		{Name: "sampling.on_share", Value: ratio(sum(func(r *layerRecord) float64 { return float64(r.st.SampledAccesses) }),
			sum(func(r *layerRecord) float64 { return float64(r.st.SampledSimulations) * float64(r.accesses) })), Unit: "ratio"},
		{Name: "explore.search_evals", Value: per(func(r *layerRecord) float64 {
			if r.search == nil {
				return 0
			}
			return float64(r.search.Evals)
		}), Unit: "count"},
		{Name: "explore.promotions", Value: per(func(r *layerRecord) float64 {
			if r.search == nil {
				return 0
			}
			return float64(r.search.Promotions)
		}), Unit: "count"},
		{Name: "pareto.front_s", Value: per(func(r *layerRecord) float64 { return r.spanDur["pareto.front"] }), Unit: "s"},
		{Name: "pareto.front_designs", Value: per(func(r *layerRecord) float64 { return float64(r.frontDesigns) }), Unit: "count"},
		{Name: "report.write_json_s", Value: per(func(r *layerRecord) float64 { return r.spanDur["report.write_json"] }), Unit: "s"},
		{Name: "report.json_kb", Value: per(func(r *layerRecord) float64 { return float64(r.jsonBytes) / 1024 }), Unit: "KiB"},
		{Name: "memorexd.submit_ms", Value: median(d.submitMs), Unit: "ms"},
		{Name: "memorexd.queue_wait_s", Value: median(d.queueWaitS), Unit: "s"},
		{Name: "memorexd.run_s", Value: median(d.runS), Unit: "s"},
		{Name: "memorexd.fetch_ms", Value: median(d.fetchMs), Unit: "ms"},
		{Name: "memorexd.events_per_job", Value: mean(d.events), Unit: "count"},
		{Name: "bench.repeat_share", Value: repeats, Unit: "ratio"},
		{Name: "trace.coverage_pct", Value: coveragePct, Unit: "%"},
		{Name: "trace.overhead_pct", Value: overheadPct, Unit: "%"},
	}
}

// simModel splits the engine's work by the probe's measured rates: the
// CPU seconds of behavior capture and of replay (rtable included) the
// requests' counters imply.
func simModel(recs []*layerRecord, p *probeResult) (captureS, replayS, engineWallS float64) {
	var evals, batches float64
	for _, r := range recs {
		evals += float64(r.st.BatchedEvals)
		batches += float64(r.st.BatchReplays)
	}
	k := max(ratio(evals, batches), 1)
	for _, r := range recs {
		captureS += float64(r.capturedAccesses) * p.captureNs / 1e9
		replayS += float64(r.st.SampledAccesses+r.st.FullAccesses) * p.replayNsAt(k) / 1e9
		engineWallS += r.engineWall()
	}
	return captureS, replayS, engineWallS
}

// largest returns the span name with the largest self-time share,
// excluding the given names.
func largest(shares map[string]float64, exclude ...string) (string, float64) {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	best, v := "", -1.0
	for _, n := range names {
		skip := false
		for _, e := range exclude {
			skip = skip || n == e
		}
		if !skip && shares[n] > v {
			best, v = n, shares[n]
		}
	}
	return best, v
}

func verdict(holds bool) string {
	if holds {
		return "prediction holds"
	}
	return "PREDICTION DOES NOT HOLD"
}

// predictions compares the layers the workload definition predicts to
// dominate against the measured self times and the probe-rate model.
func predictions(name string, recs []*layerRecord, spans []span, shares map[string]float64, p *probeResult) []string {
	capS, repS, engS := simModel(recs, p)
	model := fmt.Sprintf("probe-rate model of engine work: replay+rtable %.3f CPU-s, capture %.3f CPU-s, in %.3f s of engine phases (x%d workers)",
		repS, capS, engS, workers)
	top, topShare := largest(shares, "request", "job")
	switch name {
	case "conex-pruned":
		eng := shares["engine.estimate"] + shares["engine.fullsim"]
		holds := eng >= topShare && repS > capS
		_, compress, _ := selfTimeReport("", spans, func(r string) bool { return strings.Contains(r, "compress") }, "request")
		return []string{
			"predicted dominant on conex-pruned: batched replay + rtable (inside engine.estimate/engine.fullsim)",
			fmt.Sprintf("  measured: engine phases %.1f%% of request wall (compress requests alone %.1f%%); largest single layer %s %.1f%%; apex.explore %.1f%%",
				100*eng, 100*(compress["engine.estimate"]+compress["engine.fullsim"]), top, 100*topShare, 100*shares["apex.explore"]),
			"  " + model,
			"  " + verdict(holds),
		}
	case "conex-search":
		// explore.run's self time is the search-space build (BuildBRG,
		// clustering, enumeration per memory architecture).
		wallSum := 0.0
		for _, r := range recs {
			wallSum += r.wall
		}
		build := shares["explore.run"] * wallSum
		apexS := shares["apex.explore"] * wallSum
		holds := capS+build+apexS > repS
		return []string{
			"predicted dominant on conex-search: capture, BRG (search-space build) and APEX, above batched replay",
			fmt.Sprintf("  measured: search-space build %.1f%%, apex.explore %.1f%%, engine.search %.1f%% of request wall; largest %s %.1f%%",
				100*shares["explore.run"], 100*shares["apex.explore"], 100*shares["engine.search"], top, 100*topShare),
			"  " + model,
			fmt.Sprintf("  capture+BRG+APEX %.3f s vs replay+rtable %.3f CPU-s", capS+build+apexS, repS),
			"  " + verdict(holds),
		}
	}
	return nil
}

// repeatPredictions checks the daemon-mix prediction on repeat jobs:
// APEX, profiling and trace generation dominate once the memo serves
// the simulations.
func repeatPredictions(shares map[string]float64) []string {
	front := shares["apex.explore"] + shares["profile.analyze"] + shares["workload.generate"]
	top, topShare := largest(shares, "request")
	holds := front > 0.5 && (top == "apex.explore" || top == "profile.analyze" || top == "workload.generate")
	return []string{
		"predicted dominant on daemon-mix repeats: apex, profile and workload (the memo serves the simulations)",
		fmt.Sprintf("  measured on repeat requests: apex %.1f%%, profile %.1f%%, workload %.1f%% (together %.1f%%); largest %s %.1f%%",
			100*shares["apex.explore"], 100*shares["profile.analyze"], 100*shares["workload.generate"], 100*front, top, 100*topShare),
		"  " + verdict(holds),
	}
}
