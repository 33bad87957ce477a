package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"memorex"
)

// sample is one timed request.
type sample struct {
	key    string
	repeat bool
	dur    float64 // seconds
	failed bool
}

// setupReps is how many times a run repeats its set-up, half before and
// half after the measured requests; setup_s is the median, which a burst
// of load on the machine does not move.
const setupReps = 20

// minRounds is the fewest rounds an untraced in-process run measures:
// every run has repeat samples, and a run spans about half a minute,
// which averages out most of the short bursts of hypervisor steal on a
// shared 2-core machine.
const minRounds = 3

// runInProcess runs an in-process workload: whole rounds of the request
// cycle until the measured time has passed, so that a faster program
// never changes the request mix. A traced run measures half the time
// untraced, then the same number of rounds traced.
func runInProcess(ctx context.Context, o runOptions, name string, round []pipelineRequest) (*result, error) {
	setups, err := inProcessSetup(round, setupReps/2)
	if err != nil {
		return nil, err
	}
	res := &result{}
	measure, least := o.seconds, minRounds
	if o.traced {
		measure, least = o.seconds/2, 1
	}

	// Timed phase, tracing off: Explorer.Do on a fresh Explorer each,
	// from a collected heap as a CLI process starts. The measured time
	// is the sum of the request latencies.
	var samples []sample
	first := map[string]*memorex.Report{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	elapsed := 0.0
	rounds := 0
	for ; rounds < least || elapsed < measure.Seconds(); rounds++ {
		for _, pr := range round {
			_, seen := first[pr.key]
			s := sample{key: pr.key, repeat: seen}
			runtime.GC()
			t0 := time.Now()
			rep, err := doRequest(ctx, pr)
			s.dur = time.Since(t0).Seconds()
			elapsed += s.dur
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err != nil {
				s.failed = true
				res.failures = append(res.failures, fmt.Sprintf("%s: %v", pr.key, err))
			} else if f, ok := first[pr.key]; !ok {
				first[pr.key] = rep
			} else if !sameFront(f.ConEx.CostPerfFront, rep.ConEx.CostPerfFront) {
				s.failed = true
				res.failures = append(res.failures, fmt.Sprintf("%s: repeated request gave a different front", pr.key))
			}
			samples = append(samples, s)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rssMB := maxRSSMB(syscall.RUSAGE_SELF)
	more, err := inProcessSetup(round, setupReps-setupReps/2)
	if err != nil {
		return nil, err
	}
	setup := median(append(setups, more...))

	// Correctness gate, outside the timed interval.
	for key, rep := range first {
		if err := checkFront(rep); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", key, err))
			for i := range samples {
				if samples[i].key == key {
					samples[i].failed = true
				}
			}
		}
	}
	for _, s := range samples {
		res.attempted++
		if s.failed {
			res.failed++
		}
	}

	e2e := endToEnd(setup, samples, elapsed, float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(len(samples)), rssMB)
	if !o.traced {
		res.metrics = e2e
		return res, nil
	}
	res.untraced = e2e

	// Traced phase: the decomposed pipeline with spans, one fresh engine
	// per request as Explorer.Do has.
	rec := newRecorder()
	var recs []*layerRecord
	tracedElapsed := 0.0
	seen := map[string]bool{}
	for n := 0; n < rounds; n++ {
		for i, pr := range round {
			pr.repeat, seen[pr.key] = seen[pr.key], true
			runtime.GC()
			t0 := time.Now()
			lr, err := runPipeline(ctx, rec, fmt.Sprintf("r%d.%d/%s", n, i, pr.key), pr, newEngine())
			tracedElapsed += time.Since(t0).Seconds()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.attempted++
			if err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("traced %s: %v", pr.key, err))
				continue
			}
			if f := first[pr.key]; f != nil && !sameFront(f.ConEx.CostPerfFront, lr.rep.ConEx.CostPerfFront) {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("traced %s: decomposed pipeline front differs from Explorer.Do: %s vs %s",
					pr.key, frontLabels(lr.rep.ConEx.CostPerfFront), frontLabels(f.ConEx.CostPerfFront)))
			}
			recs = append(recs, lr)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no traced request succeeded")
	}
	untracedRPS := float64(len(samples)) / elapsed
	tracedRPS := float64(len(recs)) / tracedElapsed

	pr, err := runProbe(recs[0])
	if err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}
	dl, err := daemonProbe(ctx, o.memorexd, round[0])
	if err != nil {
		return nil, err
	}
	res.spans = rec.all()
	lines, shares, coverage := selfTimeReport("traced requests", res.spans, nil, "request")
	overhead := 100 * (untracedRPS - tracedRPS) / untracedRPS
	res.report = append(res.report, lines...)
	res.report = append(res.report,
		fmt.Sprintf("layer spans cover %.1f%% of the traced requests' wall time", 100*coverage),
		fmt.Sprintf("tracing overhead: untraced %.4f req/s, traced %.4f req/s (%.2f%%)", untracedRPS, tracedRPS, overhead),
		spanCostLine(len(res.spans), tracedElapsed))
	res.report = append(res.report, pr.lines()...)
	res.report = append(res.report, predictions(name, recs, res.spans, shares, pr)...)
	res.metrics = layerMetrics(recs, pr, dl, overhead, 100*coverage)
	return res, nil
}

// doRequest runs one request as a CLI user does: a fresh Explorer.
func doRequest(ctx context.Context, pr pipelineRequest) (*memorex.Report, error) {
	ex, err := memorex.NewExplorer(memorex.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	rep, err := ex.Do(ctx, pr.req)
	if rep != nil {
		// The gate keeps reports; let the engine and its captures go.
		rep.Options.ConEx.Engine = nil
	}
	return rep, err
}

// inProcessSetup prepares an in-process run n times: an Explorer and the
// traces of the round's benchmarks, each time from a collected heap so
// that one repetition's garbage does not slow the next. It returns the
// times.
func inProcessSetup(round []pipelineRequest, n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		ex, err := memorex.NewExplorer(memorex.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, pr := range round {
			if seen[pr.bench] {
				continue
			}
			seen[pr.bench] = true
			wl, _, _, err := resolveRequest(pr.req)
			if err != nil {
				return nil, err
			}
			if _, err := memorex.GenerateTrace(pr.bench, wl); err != nil {
				return nil, err
			}
		}
		ex.Close()
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// endToEnd assembles the end-to-end metrics of a timed phase.
func endToEnd(setup float64, samples []sample, elapsed, allocMB, rssMB float64) []metric {
	var all, rep []float64
	for _, s := range samples {
		all = append(all, s.dur)
		if s.repeat {
			rep = append(rep, s.dur)
		}
	}
	return []metric{
		{Name: "setup_s", Value: setup, Unit: "s"},
		{Name: "requests_per_s", Value: float64(len(samples)) / elapsed, Unit: "1/s"},
		{Name: "request_p50_s", Value: median(all), Unit: "s", Note: fmt.Sprintf("%d samples", len(all))},
		{Name: "request_p90_s", Value: nearestRank(all, 0.9), Unit: "s", Note: fmt.Sprintf("%d samples", len(all))},
		{Name: "repeat_request_p50_s", Value: median(rep), Unit: "s", Note: fmt.Sprintf("%d samples", len(rep))},
		{Name: "alloc_mb_per_request", Value: allocMB, Unit: "MB"},
		{Name: "max_rss_mb", Value: rssMB, Unit: "MB"},
	}
}

// maxRSSMB returns the peak resident set of this process or of its
// waited-for children, in MB.
func maxRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
