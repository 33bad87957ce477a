package main

import (
	"fmt"
	"math"
	"time"

	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/sim"
)

// The sim probe times the two simulation layers directly on a workload's
// own inputs: the trace and APEX-selected architectures of the first
// traced request, and the connectivity candidates core.EnumerateAssignments
// gives for them. It calls only sim.CaptureBehavior and sim.ReplayBatch
// (K=1 for a singleton).

// probeK are the replay batch sizes the probe measures.
var probeK = [3]int{1, 8, 32}

// probeReps is how many times each probe measurement repeats; the
// reported rate is the median.
const probeReps = 3

type probeResult struct {
	key        string
	accesses   int
	archs      int
	candidates int
	enumerateS float64    // BuildBRG + Levels + EnumerateAssignments, all archs
	captureNs  float64    // per trace access, full capture
	replayNs   [3]float64 // per replayed event and architecture, by probeK
	issues     [3]int64   // scheduler issues of one replay pass, by probeK
	conflicts  [3]int64
}

func runProbe(lr *layerRecord) (*probeResult, error) {
	t := lr.rep.Trace
	p := &probeResult{key: lr.key, accesses: t.NumAccesses(), archs: len(lr.selected)}
	t0 := time.Now()
	cands := make([][]*connect.Arch, len(lr.selected))
	for i, arch := range lr.selected {
		brg, err := core.BuildBRG(t, arch)
		if err != nil {
			return nil, err
		}
		for _, level := range core.Levels(brg) {
			archs, _ := core.EnumerateAssignments(brg, level, lr.conex.Library, lr.conex.MaxAssignPerLevel)
			cands[i] = append(cands[i], archs...)
		}
		p.candidates += len(cands[i])
	}
	p.enumerateS = time.Since(t0).Seconds()

	var capNs []float64
	var repNs [3][]float64
	for i, arch := range lr.selected {
		if len(cands[i]) == 0 {
			continue
		}
		var bt *sim.BehaviorTrace
		for r := 0; r < probeReps; r++ {
			s := time.Now()
			var err error
			if bt, err = sim.CaptureBehavior(t, arch, nil); err != nil {
				return nil, err
			}
			capNs = append(capNs, float64(time.Since(s).Nanoseconds())/float64(p.accesses))
		}
		events := float64(bt.NumEvents())
		for k, K := range probeK {
			batch := make([]*connect.Arch, K)
			for j := range batch {
				batch[j] = cands[i][j%len(cands[i])]
			}
			for r := 0; r < probeReps; r++ {
				s := time.Now()
				out, err := sim.ReplayBatch(bt, batch)
				if err != nil {
					return nil, err
				}
				repNs[k] = append(repNs[k], float64(time.Since(s).Nanoseconds())/(events*float64(K)))
				if r == 0 {
					for _, o := range out {
						p.issues[k] += o.SchedIssues
						p.conflicts[k] += o.SchedConflicts
					}
				}
			}
		}
	}
	if len(capNs) == 0 {
		return nil, fmt.Errorf("no architecture with connectivity candidates")
	}
	p.captureNs = median(capNs)
	for k := range probeK {
		p.replayNs[k] = median(repNs[k])
	}
	return p, nil
}

// replayNsAt interpolates the replay cost per event and architecture at
// batch size k, linearly in log k between the probed sizes.
func (p *probeResult) replayNsAt(k float64) float64 {
	if k <= float64(probeK[0]) {
		return p.replayNs[0]
	}
	for i := 1; i < len(probeK); i++ {
		if k <= float64(probeK[i]) {
			lo, hi := math.Log(float64(probeK[i-1])), math.Log(float64(probeK[i]))
			f := (math.Log(k) - lo) / (hi - lo)
			return p.replayNs[i-1] + f*(p.replayNs[i]-p.replayNs[i-1])
		}
	}
	return p.replayNs[len(probeK)-1]
}

func (p *probeResult) lines() []string {
	out := []string{fmt.Sprintf("sim probe on %s (%d accesses, %d APEX-selected archs, %d candidates, enumeration %.4f s):",
		p.key, p.accesses, p.archs, p.candidates, p.enumerateS),
		fmt.Sprintf("  CaptureBehavior %.2f ns/access", p.captureNs)}
	for k, K := range probeK {
		out = append(out, fmt.Sprintf("  ReplayBatch K=%-2d %.2f ns/event/arch, %d sched issues, %d conflicts",
			K, p.replayNs[k], p.issues[k], p.conflicts[k]))
	}
	return out
}
