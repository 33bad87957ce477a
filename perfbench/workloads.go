package main

import (
	"context"

	"memorex"
	"memorex/internal/workload"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: a client sends its next request only after the previous
// one completed.
type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, opts runOptions) (*result, error)
}

// The load is sized for a 2-core machine: one process, at most two client
// goroutines and connections, and two engine workers everywhere
// (memorex.WithWorkers(2), memorexd -workers 2 -max-running 2).
const workers = 2

var workloads = map[string]*workloadDef{
	// conex-pruned: one client issues the paper's Pruned two-phase ConEx
	// requests one after another, each with the paper-preset APEX/ConEx
	// configuration (the Explorer defaults) on a fresh Explorer, so the
	// memo is cold as a CLI user always has it. A round is compress,
	// vocoder and compress again; requests identical to an earlier one of
	// the run count as repeats (run cold, like the first).
	//
	// Why: this is the paper's algorithm. Predicted layer shares (CPU
	// profile of Figure 4, i.e. compress): batched replay plus rtable
	// about 70%, APEX about 15%, capture about 3%, no singleton spills.
	// li is left out of this round: its paper-preset request takes about
	// 11 s on a 2-core machine (7 s of it APEX on a 2.5M-access trace),
	// too long for enough samples per run; daemon-mix runs li.
	"conex-pruned": {
		name: "conex-pruned",
		why:  "the paper's pruned two-phase ConEx on cold Explorers: batched replay and the rtable scheduler dominate",
		run: func(ctx context.Context, o runOptions) (*result, error) {
			return runInProcess(ctx, o, "conex-pruned", prunedRound(o.seed))
		},
	},
	// conex-search: one client alternates GA and SA requests (budget
	// 400, seeded from the run seed) on compress and vocoder, each on a
	// fresh Explorer. A round is ga/compress, sa/vocoder, sa/compress.
	//
	// Why: the same engine used differently. Predicted: about 129
	// captures per request (about 30% of CPU), BuildBRG about 17%, 23 of
	// 400 evaluations as singletons through the per-arch replay (about
	// 12%), batched replay only about 22%. A single replay path shows
	// here; conex-pruned predicts no change for it.
	"conex-search": {
		name: "conex-search",
		why:  "GA/SA search on cold Explorers: many captures, BRG builds and singleton replays, little batching",
		run: func(ctx context.Context, o runOptions) (*result, error) {
			return runInProcess(ctx, o, "conex-search", searchRound(o.seed))
		},
	},
	// daemon-mix: two clients submit small jobs to one memorexd and wait
	// for each (submit, event stream, fetch) before sending the next.
	// Jobs use two cache sizes, max_assign_per_level 12 and on_window
	// 500, and come from a seeded catalogue over compress, li and
	// vocoder arranged so that about half repeat an earlier request.
	//
	// Why: repeats are served from the daemon's shared memo, so replay
	// does little. Predicted for repeat jobs: APEX 43%, profile 18%, BRG
	// 14%, trace generation 5%, plus HTTP, queueing and report JSON.
	// This is the submit-to-done number, and where daemon hardening
	// would show any cost.
	"daemon-mix": {
		name: "daemon-mix",
		why:  "small daemon jobs, half of them repeats served from the shared memo: APEX, profiling, HTTP and report JSON",
		run:  runDaemon,
	},
}

// pipelineRequest is one request of a workload with its identity.
type pipelineRequest struct {
	key    string // identifies identical requests (repeats)
	bench  string
	req    memorex.ExploreRequest
	repeat bool // identical to an earlier request of the run
}

func workloadConfig(seed int64) *workload.Config {
	return &workload.Config{Scale: 1, Seed: seed}
}

// prunedRound is the conex-pruned request cycle.
func prunedRound(seed int64) []pipelineRequest {
	var out []pipelineRequest
	for _, b := range []string{"compress", "vocoder", "compress"} {
		out = append(out, pipelineRequest{
			key:   "pruned/" + b,
			bench: b,
			req:   memorex.ExploreRequest{Benchmark: b, Workload: workloadConfig(seed)},
		})
	}
	return out
}

// searchBudget is the evaluation budget of every conex-search request.
const searchBudget = 400

// searchRound is the conex-search request cycle.
func searchRound(seed int64) []pipelineRequest {
	searchSeed := int64(splitmix(uint64(seed))>>1) | 1
	var out []pipelineRequest
	for _, c := range []struct{ strat, bench string }{
		{"ga", "compress"}, {"sa", "vocoder"}, {"sa", "compress"},
	} {
		out = append(out, pipelineRequest{
			key:   c.strat + "/" + c.bench,
			bench: c.bench,
			req: memorex.ExploreRequest{
				Benchmark: c.bench,
				Workload:  workloadConfig(seed),
				Strategy:  c.strat,
				Search:    &memorex.SearchConfig{Seed: searchSeed, Budget: searchBudget},
			},
		})
	}
	return out
}

// splitmix is the splitmix64 mixing step, used to derive seeds and the
// daemon catalogue from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
