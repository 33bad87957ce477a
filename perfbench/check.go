package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"memorex"
	"memorex/internal/core"
	"memorex/internal/pareto"
)

// The correctness gate runs outside the timed interval. It does not pin a
// golden front: an intended change to the exploration may change which
// designs a front holds. It checks properties every correct front has,
// and ties every front design to the one-phase simulator oracle.

// checkFront checks an in-process report: the cost/performance front is
// non-empty and mutually non-dominated, and every front design equals
// core.FullSimulate bit for bit in cost, latency and energy.
func checkFront(rep *memorex.Report) error {
	front := rep.ConEx.CostPerfFront
	if len(front) == 0 {
		return fmt.Errorf("empty cost/performance front")
	}
	pts := make([]pareto.Point, len(front))
	for i := range front {
		pts[i] = pareto.Point{Label: front[i].Label(), Cost: front[i].Cost, Latency: front[i].Latency, Energy: front[i].Energy}
	}
	if err := nonDominated(pts); err != nil {
		return err
	}
	for i := range front {
		d := &front[i]
		ref, _, err := core.FullSimulate(rep.Trace, d.MemArch, d.Conn)
		if err != nil {
			return fmt.Errorf("oracle on %s: %w", d.Label(), err)
		}
		if ref.Cost != d.Cost || ref.Latency != d.Latency || ref.Energy != d.Energy {
			return fmt.Errorf("front design %s differs from the one-phase oracle: (%v, %v, %v) vs (%v, %v, %v)",
				d.Label(), d.Cost, d.Latency, d.Energy, ref.Cost, ref.Latency, ref.Energy)
		}
	}
	return nil
}

// nonDominated reports a pair of front points where one dominates the
// other in cost and latency.
func nonDominated(pts []pareto.Point) error {
	for i := range pts {
		for j := range pts {
			if i != j && pareto.Dominates(&pts[i], &pts[j], pareto.Cost, pareto.Latency) {
				return fmt.Errorf("front design %s dominates front design %s", pts[i].Label, pts[j].Label)
			}
		}
	}
	return nil
}

// sameFront reports whether two fronts hold the same designs with the
// same metrics, in order.
func sameFront(a, b []core.DesignPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label() != b[i].Label() || a[i].Cost != b[i].Cost ||
			a[i].Latency != b[i].Latency || a[i].Energy != b[i].Energy {
			return false
		}
	}
	return true
}

// daemonReport is the part of a job's report JSON the gate reads.
type daemonReport struct {
	Designs json.RawMessage `json:"designs"`
}

// checkDaemonReport checks a daemon report: designs present, and the
// designs on the cost/performance front non-empty and non-dominated. It
// returns the raw designs for the byte-for-byte repeat check.
func checkDaemonReport(raw []byte) ([]byte, error) {
	var rep daemonReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing report: %w", err)
	}
	var designs []memorex.DesignJSON
	if err := json.Unmarshal(rep.Designs, &designs); err != nil {
		return nil, fmt.Errorf("parsing report designs: %w", err)
	}
	var pts []pareto.Point
	for _, d := range designs {
		if d.OnFront {
			pts = append(pts, pareto.Point{Label: d.Memory + " | " + d.Connectivity, Cost: d.CostGates, Latency: d.LatencyCyc, Energy: d.EnergyNJ})
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("empty cost/performance front")
	}
	if err := nonDominated(pts); err != nil {
		return nil, err
	}
	return compact(rep.Designs)
}

// designsJSON renders an in-process report's designs exactly as the
// daemon serves them.
func designsJSON(rep *memorex.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var out daemonReport
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, err
	}
	return compact(out.Designs)
}

// compact strips insignificant white space, so that designs taken from
// an indented report and from a job response compare byte for byte.
func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
