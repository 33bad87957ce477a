package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"memorex"
	"memorex/internal/jobapi"
	"memorex/internal/obs"
)

// daemon-mix job shape: two cache sizes per APEX sweep, a capped
// assignment enumeration and a short sampling window, so one job takes
// a fraction of a second.
var (
	mixCacheSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	mixAssocs     = []int{1, 2}
	mixBenchmarks = []string{"compress", "li", "vocoder"}
)

const (
	mixMaxAssign = 12
	// mixBlock is the catalogue's block length: a new request and a
	// repeat each of compress and vocoder, and one li request, new in
	// every mixLiEvery-th block and a repeat otherwise. li's 2.5M-access
	// traces and captures stay in the daemon's memo, so li runs less
	// often to bound the daemon's memory.
	mixBlock   = 5
	mixLiEvery = 3
	// mixJobs is the length of an untraced run: at least ten samples lie
	// beyond the 90th percentile. The count is fixed rather than bounded
	// by time because the daemon's memory grows with every job, so a
	// time-bounded run would report more memory for a faster daemon.
	mixJobs = 20 * mixBlock
	// mixReplayJobs is how many of the sequence's jobs the traced run
	// replays in-process for the per-layer split.
	mixReplayJobs = 3 * mixBlock
)

// catalogue generates the seeded daemon-mix job sequence lazily.
type catalogue struct {
	seed int64
	rng  uint64
	perm map[string][]int // per benchmark: order of the APEX variants
	news map[string][]pipelineRequest
	seq  []pipelineRequest
	// blocks counts the blocks generated so far.
	blocks int
}

func newCatalogue(seed int64) *catalogue {
	c := &catalogue{seed: seed, rng: uint64(seed), perm: map[string][]int{}, news: map[string][]pipelineRequest{}}
	n := len(mixAssocs) * len(mixCacheSizes) * (len(mixCacheSizes) - 1) / 2
	for _, b := range mixBenchmarks {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := c.intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		c.perm[b] = p
	}
	return c
}

func (c *catalogue) intn(n int) int {
	c.rng = splitmix(c.rng)
	return int(c.rng % uint64(n))
}

// at returns the i-th job of the sequence.
func (c *catalogue) at(i int) pipelineRequest {
	for i >= len(c.seq) {
		c.addBlock()
	}
	return c.seq[i]
}

// addBlock appends one shuffled block. A repeat names a request first
// issued in an earlier block; with none yet it is a new request.
func (c *catalogue) addBlock() {
	var blk []pipelineRequest
	repeat := func(b string) pipelineRequest {
		prev := c.news[b]
		if len(prev) == 0 {
			return c.newRequest(b)
		}
		r := prev[c.intn(len(prev))]
		r.repeat = true
		return r
	}
	for _, b := range []string{"compress", "vocoder"} {
		blk = append(blk, repeat(b), c.newRequest(b))
	}
	if c.blocks%mixLiEvery == 0 {
		blk = append(blk, c.newRequest("li"))
	} else {
		blk = append(blk, repeat("li"))
	}
	c.blocks++
	for i := len(blk) - 1; i > 0; i-- {
		j := c.intn(i + 1)
		blk[i], blk[j] = blk[j], blk[i]
	}
	c.seq = append(c.seq, blk...)
}

// newRequest builds benchmark b's next distinct request: an APEX variant
// (cache-size pair and associativity) it has not used yet. The variants
// of one benchmark run out after 30 new requests; later ones reuse them.
func (c *catalogue) newRequest(b string) pipelineRequest {
	v := c.perm[b][len(c.news[b])%len(c.perm[b])]
	assoc := mixAssocs[v%len(mixAssocs)]
	v /= len(mixAssocs)
	var lo, hi int
	for i := range mixCacheSizes {
		for j := i + 1; j < len(mixCacheSizes); j++ {
			if v == 0 {
				lo, hi = mixCacheSizes[i], mixCacheSizes[j]
			}
			v--
		}
	}
	maxAssign := mixMaxAssign
	r := pipelineRequest{
		key:   fmt.Sprintf("%s/%d-%d/%dway", b, lo, hi, assoc),
		bench: b,
		req: memorex.ExploreRequest{
			Benchmark: b,
			Workload:  workloadConfig(c.seed),
			APEX: &memorex.APEXConfig{
				CacheSizes: []int{lo, hi}, CacheAssocs: []int{assoc}, CacheLines: []int{32},
				MaxCustom: 1, SRAMLimit: 80 << 10, MaxSelected: 2,
			},
			Sampling:          &memorex.SamplingConfig{OnWindow: 500, OffRatio: 9},
			KeepPerArch:       3,
			MaxAssignPerLevel: &maxAssign,
		},
	}
	c.news[b] = append(c.news[b], r)
	return r
}

// daemonProc is a running memorexd.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string // job API base URL
	debug  string // expvar base URL
	stderr *tailBuffer
	waited chan error
}

// tailBuffer keeps the last lines a process wrote, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// freeAddrs returns two distinct loopback addresses whose ports are free
// at the time of the call.
func freeAddrs() (string, string, error) {
	var addrs [2]string
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", "", err
		}
		// Held open until both are chosen, so the two differ.
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs[0], addrs[1], nil
}

// startDaemon starts memorexd and waits until /healthz answers. Another
// process may take a chosen port before memorexd binds it; a daemon that
// exits at start is retried on fresh ports.
func startDaemon(ctx context.Context, bin string) (*daemonProc, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemonProc
		if d, err = startDaemonOnce(ctx, bin); err == nil || ctx.Err() != nil {
			return d, err
		}
	}
	return nil, err
}

func startDaemonOnce(ctx context.Context, bin string) (*daemonProc, error) {
	api, dbg, err := freeAddrs()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{base: "http://" + api, debug: "http://" + dbg, stderr: &tailBuffer{}, waited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", api, "-debug-addr", dbg,
		"-workers", fmt.Sprint(workers), "-max-running", fmt.Sprint(workers))
	d.cmd.Stderr = d.stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting memorexd: %w", err)
	}
	go func() { d.waited <- d.cmd.Wait() }()

	c := &jobapi.Client{Base: d.base}
	deadline := time.Now().Add(20 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		h, err := c.Health(hctx)
		cancel()
		if err == nil && h.Status == "ok" {
			return d, nil
		}
		select {
		case err := <-d.waited:
			d.waited <- err
			return nil, fmt.Errorf("memorexd exited at start (%v): %s", err, d.stderr)
		case <-ctx.Done():
			_ = d.stop() // the run is over; its context error is the one to report
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = d.stop() // the daemon never came up; that is the error to report
			return nil, fmt.Errorf("memorexd did not become healthy: %s", d.stderr)
		}
	}
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs) and
// waits for it to exit. It returns the exit error, nil for a clean drain.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case err := <-d.waited:
		d.waited <- err
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.waited
		d.waited <- err
		return fmt.Errorf("memorexd did not drain: %v", err)
	}
}

// maxRSSMB returns the peak resident set of the exited daemon, in MB.
func (d *daemonProc) maxRSSMB() float64 {
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// totalAllocMB reads the daemon's cumulative heap allocation from its
// expvar memstats.
func (d *daemonProc) totalAllocMB(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.debug+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("reading memorexd memstats: %w", err)
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("reading memorexd memstats: %w", err)
	}
	return float64(vars.Memstats.TotalAlloc) / 1e6, nil
}

// jobResult is one daemon job as a client saw it.
type jobResult struct {
	idx        int // position in the job sequence
	pr         pipelineRequest
	lat        float64 // submit to report fetched, seconds
	submitMs   float64
	fetchMs    float64
	queueWaitS float64
	runS       float64
	events     int
	designs    []byte
	err        error
}

// runJobs drives the first n jobs of the catalogue from two closed-loop
// clients and returns them in sequence order with the elapsed wall time.
func runJobs(ctx context.Context, d *daemonProc, cat *catalogue, rec *recorder, n int) ([]jobResult, float64) {
	client := &jobapi.Client{Base: d.base, HTTPClient: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}}
	defer client.HTTPClient.CloseIdleConnections()
	var mu sync.Mutex
	var results []jobResult
	next := 0
	start := time.Now()
	take := func() (int, pipelineRequest, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || ctx.Err() != nil {
			return 0, pipelineRequest{}, false
		}
		i := next
		next++
		return i, cat.at(i), true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, pr, ok := take()
				if !ok {
					return
				}
				r := runJob(ctx, client, rec, fmt.Sprintf("job%d/%s", i, pr.key), pr)
				r.idx = i
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	sort.Slice(results, func(i, j int) bool { return results[i].idx < results[j].idx })
	return results, elapsed
}

// runJob submits one job, follows its event stream to the end and fetches
// its report, with a span around each step.
func runJob(ctx context.Context, c *jobapi.Client, rec *recorder, reqID string, pr pipelineRequest) jobResult {
	r := jobResult{pr: pr}
	root, end := rec.begin(reqID, "job", 0)
	t0 := time.Now()
	step := func(name string, f func() error) (float64, error) {
		s := time.Now()
		_, end := rec.begin(reqID, name, root)
		err := f()
		end()
		return time.Since(s).Seconds(), err
	}
	var jb jobapi.Job
	var d float64
	d, r.err = step("memorexd.submit", func() (err error) { jb, err = c.Submit(ctx, pr.req); return err })
	r.submitMs = 1000 * d
	if r.err == nil {
		_, r.err = step("memorexd.events", func() error {
			return c.Events(ctx, jb.ID, func(obs.Event) error { r.events++; return nil })
		})
	}
	if r.err == nil {
		d, r.err = step("memorexd.fetch", func() (err error) { jb, err = c.Job(ctx, jb.ID); return err })
		r.fetchMs = 1000 * d
	}
	end()
	r.lat = time.Since(t0).Seconds()
	if r.err != nil {
		return r
	}
	if jb.State != jobapi.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", jb.ID, jb.State, jb.Error)
		return r
	}
	if jb.Started != nil && jb.Finished != nil {
		r.queueWaitS = jb.Started.Sub(jb.Created).Seconds()
		r.runS = jb.Finished.Sub(*jb.Started).Seconds()
	}
	r.designs, r.err = checkDaemonReport(jb.Report)
	return r
}

// gateJobs checks every job: done, a valid front, and a repeat's designs
// byte for byte equal to the first report of the same request. It
// returns the failure messages and marks failed jobs.
func gateJobs(results []jobResult, failed []bool) []string {
	var msgs []string
	first := map[string][]byte{}
	for i, r := range results {
		if r.err != nil {
			failed[i] = true
			msgs = append(msgs, fmt.Sprintf("%s: %v", r.pr.key, r.err))
			continue
		}
		if f, ok := first[r.pr.key]; !ok {
			first[r.pr.key] = r.designs
		} else if !bytes.Equal(f, r.designs) {
			failed[i] = true
			msgs = append(msgs, fmt.Sprintf("%s: repeated job's designs differ from the first report", r.pr.key))
		}
	}
	return msgs
}

// oracleJobs re-runs the first job of each benchmark in-process with
// Explorer.Do, requires the daemon's designs to equal it byte for byte,
// and checks the front against the one-phase oracle.
func oracleJobs(ctx context.Context, results []jobResult, failed []bool) []string {
	var msgs []string
	done := map[string]bool{}
	for _, r := range results {
		if r.err != nil || done[r.pr.bench] {
			continue
		}
		done[r.pr.bench] = true
		err := func() error {
			rep, err := doRequest(ctx, r.pr)
			if err != nil {
				return err
			}
			want, err := designsJSON(rep)
			if err != nil {
				return err
			}
			if !bytes.Equal(want, r.designs) {
				return errors.New("daemon designs differ from Explorer.Do on the same request")
			}
			return checkFront(rep)
		}()
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("%s: %v", r.pr.key, err))
			for i := range results {
				if results[i].pr.key == r.pr.key {
					failed[i] = true
				}
			}
		}
	}
	return msgs
}

// runDaemon is the daemon-mix workload.
func runDaemon(ctx context.Context, o runOptions) (*result, error) {
	if o.memorexd == "" {
		return nil, errors.New("daemon-mix needs -memorexd")
	}
	// Set-up: start the daemon until healthy, half of setupReps times
	// before the jobs (the last start serves them) and half after.
	var setups []float64
	setup := func(n int, keep bool) (*daemonProc, error) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			d, err := startDaemon(ctx, o.memorexd)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if keep && i == n-1 {
				return d, nil
			}
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("memorexd drain: %v: %s", err, d.stderr)
			}
		}
		return nil, nil
	}
	d, err := setup(setupReps/2, true)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // error path: the run has already failed
		}
	}()

	res := &result{}
	jobs := mixJobs
	if o.traced {
		jobs = mixJobs / 2
	}
	allocBefore, err := d.totalAllocMB(ctx)
	if err != nil {
		return nil, err
	}
	results, elapsed := runJobs(ctx, d, newCatalogue(o.seed), nil, jobs)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	allocAfter, err := d.totalAllocMB(ctx)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("memorexd drain: %v: %s", err, d.stderr)
	}
	rssMB := d.maxRSSMB()
	if _, err := setup(setupReps-setupReps/2, false); err != nil {
		return nil, err
	}

	failed := make([]bool, len(results))
	res.failures = append(res.failures, gateJobs(results, failed)...)
	res.failures = append(res.failures, oracleJobs(ctx, results, failed)...)
	var samples []sample
	repeats := 0
	for i, r := range results {
		samples = append(samples, sample{key: r.pr.key, repeat: r.pr.repeat, dur: r.lat, failed: failed[i]})
		res.attempted++
		if failed[i] {
			res.failed++
		}
		if r.pr.repeat {
			repeats++
		}
	}
	repeatShare := float64(repeats) / float64(len(samples))
	res.report = append(res.report, fmt.Sprintf("measured repeat share: %.3f of %d jobs", repeatShare, len(samples)))

	e2e := endToEnd(median(setups), samples, elapsed, (allocAfter-allocBefore)/float64(len(samples)), rssMB)
	if !o.traced {
		res.metrics = e2e
		return res, nil
	}
	res.untraced = e2e
	return tracedDaemon(ctx, o, res, len(results), float64(len(results))/elapsed)
}

// tracedDaemon is the traced part of a daemon-mix run: the same jobs
// again on a fresh daemon with spans around submit, event stream and
// fetch, then the first jobs replayed in-process through the decomposed
// pipeline on one shared engine (as the daemon shares one), then the sim
// probe.
func tracedDaemon(ctx context.Context, o runOptions, res *result, jobs int, untracedRPS float64) (*result, error) {
	d, err := startDaemon(ctx, o.memorexd)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	results, elapsed := runJobs(ctx, d, newCatalogue(o.seed), rec, jobs)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("memorexd drain: %v: %s", err, d.stderr)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	failed := make([]bool, len(results))
	res.failures = append(res.failures, gateJobs(results, failed)...)
	dl := &daemonLayer{}
	for i, r := range results {
		res.attempted++
		if failed[i] {
			res.failed++
			continue
		}
		dl.add(r)
	}
	tracedRPS := float64(len(results)) / elapsed

	cat := newCatalogue(o.seed)
	eng := newEngine()
	var recs []*layerRecord
	var probeRec *layerRecord
	for i := 0; i < mixReplayJobs; i++ {
		pr := cat.at(i)
		id := fmt.Sprintf("replay%d/%s", i, pr.key)
		if pr.repeat {
			id += "#repeat"
		}
		lr, err := runPipeline(ctx, rec, id, pr, eng)
		res.attempted++
		if err != nil {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("replay %s: %v", pr.key, err))
			continue
		}
		recs = append(recs, lr)
		if probeRec == nil && pr.bench == "compress" {
			probeRec = lr
		}
	}
	if probeRec == nil {
		return nil, errors.New("no compress job among the replayed jobs")
	}
	p, err := runProbe(probeRec)
	if err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}

	res.spans = rec.all()
	jobLines, _, jobCoverage := selfTimeReport("daemon jobs", res.spans, func(r string) bool { return strings.HasPrefix(r, "job") }, "job")
	replayLines, _, _ := selfTimeReport("in-process replay of the first jobs", res.spans,
		func(r string) bool { return strings.HasPrefix(r, "replay") }, "request")
	repLines, repShares, _ := selfTimeReport("repeat jobs replayed in-process", res.spans,
		func(r string) bool { return strings.HasSuffix(r, "#repeat") }, "request")
	overhead := 100 * (untracedRPS - tracedRPS) / untracedRPS
	res.report = append(res.report, jobLines...)
	res.report = append(res.report,
		fmt.Sprintf("job spans cover %.1f%% of the traced jobs' wall time", 100*jobCoverage),
		fmt.Sprintf("tracing overhead: untraced %.4f jobs/s, traced %.4f jobs/s (%.2f%%)", untracedRPS, tracedRPS, overhead),
		spanCostLine(4*len(results), elapsed))
	res.report = append(res.report, replayLines...)
	res.report = append(res.report, repLines...)
	res.report = append(res.report, p.lines()...)
	res.report = append(res.report, repeatPredictions(repShares)...)
	res.metrics = layerMetrics(recs, p, dl, overhead, 100*jobCoverage)
	return res, nil
}

// daemonProbe runs one job of an in-process workload through a fresh
// memorexd, so that the service layer is measured on every workload's
// own requests.
func daemonProbe(ctx context.Context, bin string, pr pipelineRequest) (*daemonLayer, error) {
	d, err := startDaemon(ctx, bin)
	if err != nil {
		return nil, err
	}
	r := runJob(ctx, &jobapi.Client{Base: d.base}, nil, "probe/"+pr.key, pr)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("memorexd drain: %v: %s", err, d.stderr)
	}
	if r.err != nil {
		return nil, fmt.Errorf("daemon probe %s: %w", pr.key, r.err)
	}
	dl := &daemonLayer{}
	dl.add(r)
	return dl, nil
}
