// Command perfbench is the MemorEx benchmark: it drives the workloads
// defined in workloads.go through the public entry points
// (memorex.Explorer.Do in-process, and a separately started memorexd over
// the job API), checks every result, and prints one metric per line with
// its unit, then a JSON result object as the last line of standard output.
//
// Usage (normally through run.py, which builds this program and memorexd):
//
//	perfbench -memorexd PATH -out DIR -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics with tracing off. With
// -trace 1 it runs the workload untraced and then traced, records spans
// around the calls it makes into each layer, runs the sim probe, and
// reports the per-layer metrics, the layer self times and the tracing
// overhead. Spans are kept in memory and written to DIR at exit.
//
// All times are host time. Simulated-time outputs (cost, latency, energy
// of the designs) are checked against the one-phase simulator oracle
// (core.FullSimulate) but are not gated metrics: the model is not
// validated against hardware.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, set-up and checks included, so that the
// program always exits (and stops memorexd) well within its time limit.
const runDeadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload to run (conex-pruned, conex-search, daemon-mix)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "how long one run measures, in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	memorexd := flag.String("memorexd", "", "path of the memorexd binary (daemon-mix)")
	outDir := flag.String("out", "", "directory the span trace is written to (-trace 1)")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	opts := runOptions{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		memorexd: *memorexd,
	}
	res, err := w.run(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if opts.traced && *outDir != "" {
		if err := writeSpans(*outDir, w.name, *seed, res.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return printResult(w, opts, res)
}

// runOptions are the command-line settings a workload runs with.
type runOptions struct {
	seed     int64
	seconds  time.Duration
	traced   bool
	memorexd string
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note qualifies the value in the human-readable listing, e.g.
	// "absent" for a counter the program no longer exports.
	Note string
}

// result is what a workload run hands back for printing.
type result struct {
	attempted, failed int
	failures          []string
	metrics           []metric // end-to-end (untraced) or per-layer (traced)
	// untraced holds a traced run's end-to-end metrics of its untraced
	// phase: listed, but not part of the result object.
	untraced []metric
	report   []string // extra human-readable lines
	spans    []span
}

func printResult(w *workloadDef, opts runOptions, res *result) int {
	mode := "end-to-end metrics, tracing off"
	if opts.traced {
		mode = "per-layer metrics, traced run"
	}
	fmt.Printf("workload %s (seed %d, %s)\n", w.name, opts.seed, mode)
	fmt.Printf("  why: %s\n", w.why)
	for _, f := range res.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	failedRatio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("  %-34s %14d %s\n", "attempted", res.attempted, "count")
	fmt.Printf("  %-34s %14.4f %s\n", "failed_ratio", failedRatio, "ratio")
	out := map[string]any{}
	for _, m := range res.metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", m.Name, m.Value, m.Unit, note)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if len(res.untraced) > 0 {
		fmt.Println("  end-to-end metrics of the untraced phase:")
		for _, m := range res.untraced {
			fmt.Printf("    %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, l := range res.report {
		fmt.Println("  " + l)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// writeSpans writes the traced run's spans as one JSON document.
func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
