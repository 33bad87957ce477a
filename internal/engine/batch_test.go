package engine

import (
	"context"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/obs"
)

// TestTimingSignature: the dedup key must be invariant under cluster
// and channel reordering and under non-timing parameter changes (name,
// class, port bound, gates), and must change with any timing or energy
// parameter.
func TestTimingSignature(t *testing.T) {
	a := testArch(4096)
	base := testConn(t, a, "ahb32")

	// Reorder clusters (and their assignments) — same partition, same
	// signature.
	perm := &connect.Arch{Channels: base.Channels}
	for i := len(base.Clusters) - 1; i >= 0; i-- {
		perm.Clusters = append(perm.Clusters, base.Clusters[i])
		perm.Assign = append(perm.Assign, base.Assign[i])
	}
	if timingSignature(perm) != timingSignature(base) {
		t.Error("cluster reordering changed the timing signature")
	}

	// Non-timing fields are excluded.
	cosmetic := &connect.Arch{Channels: base.Channels, Clusters: base.Clusters}
	cosmetic.Assign = append([]connect.Component(nil), base.Assign...)
	cosmetic.Assign[0].Name = "renamed"
	cosmetic.Assign[0].MaxPorts += 7
	cosmetic.Assign[0].BaseGates *= 3
	cosmetic.Assign[0].GatesPerPort += 100
	if timingSignature(cosmetic) != timingSignature(base) {
		t.Error("non-timing component fields changed the timing signature")
	}

	// Every timing/energy parameter is included.
	mutations := []func(*connect.Component){
		func(c *connect.Component) { c.WidthBytes *= 2 },
		func(c *connect.Component) { c.ArbCycles++ },
		func(c *connect.Component) { c.BeatCycles++ },
		func(c *connect.Component) { c.Pipelined = !c.Pipelined },
		func(c *connect.Component) { c.Split = !c.Split },
		func(c *connect.Component) { c.EnergyPerByte += 0.001 },
	}
	for i, mutate := range mutations {
		m := &connect.Arch{Channels: base.Channels, Clusters: base.Clusters}
		m.Assign = append([]connect.Component(nil), base.Assign...)
		mutate(&m.Assign[0])
		if timingSignature(m) == timingSignature(base) {
			t.Errorf("timing mutation %d did not change the signature", i)
		}
	}

	// A different partition of the same channels differs even with the
	// same component everywhere.
	if timingSignature(testConn(t, a, "ahb32")) != timingSignature(base) {
		t.Error("independently built identical arch changed the signature")
	}
}

// TestEvaluateBatchPath: a homogeneous group of distinct connectivity
// candidates must be served by batched replays, produce values
// identical to the per-request path, and seed the memo cache for
// later requests.
func TestEvaluateBatchPath(t *testing.T) {
	tr := testTrace(t)
	a := testArch(4096)
	comps := []string{"ded32", "mux32", "apb32", "asb32", "ahb32", "ahb64"}
	var reqs []Request
	for _, name := range comps {
		reqs = append(reqs, sampled(tr, a, testConn(t, a, name)))
	}

	e := New(4)
	got, err := e.Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-exact against a fresh engine running the per-request path.
	ref := New(1)
	for i, r := range reqs {
		want, err := ref.computeOne(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cost != want.Cost || got[i].Latency != want.Latency || got[i].Energy != want.Energy {
			t.Errorf("req %d: batch value %+v != per-request value %+v", i, got[i], want)
		}
		if got[i].Hit || got[i].Work == 0 {
			t.Errorf("req %d: batch value should be a fresh simulation, got %+v", i, got[i])
		}
	}

	st := e.Stats()
	if st.BatchReplays == 0 {
		t.Error("homogeneous batch ran no batched replays")
	}
	if st.BatchedEvals != int64(len(reqs)) {
		t.Errorf("BatchedEvals = %d, want %d", st.BatchedEvals, len(reqs))
	}
	if st.BehaviorCaptures != 1 {
		t.Errorf("BehaviorCaptures = %d, want 1 (one shared trace)", st.BehaviorCaptures)
	}
	if st.Simulations != int64(len(reqs)) {
		t.Errorf("Simulations = %d, want %d", st.Simulations, len(reqs))
	}

	// The batch seeded the memo cache.
	again, err := e.Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].Hit {
			t.Errorf("req %d: second evaluation missed the cache", i)
		}
	}
	if st := e.Stats(); st.CacheHits != int64(len(reqs)) {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, len(reqs))
	}
}

// TestEvaluateBatchDedup: two candidates whose components differ only
// in gates share one replay — the follower reports the leader's
// latency and energy under its own gate cost, and is counted as a
// dedup hit rather than a simulation or cache hit.
func TestEvaluateBatchDedup(t *testing.T) {
	tr := testTrace(t)
	a := testArch(4096)
	lead := testConn(t, a, "ahb32")

	follow := &connect.Arch{Channels: lead.Channels, Clusters: lead.Clusters}
	follow.Assign = append([]connect.Component(nil), lead.Assign...)
	for i := range follow.Assign {
		follow.Assign[i].Name = follow.Assign[i].Name + "-hardened"
		follow.Assign[i].BaseGates *= 2
		follow.Assign[i].GatesPerPort *= 2
	}

	reg := obs.NewRegistry()
	e := New(2, WithMetrics(reg))
	reqs := []Request{
		sampled(tr, a, lead),
		sampled(tr, a, testConn(t, a, "mux32")),
		sampled(tr, a, follow),
	}
	got, err := e.Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	if got[2].Latency != got[0].Latency || got[2].Energy != got[0].Energy {
		t.Errorf("follower figures %+v diverged from leader %+v", got[2], got[0])
	}
	if got[2].Cost <= got[0].Cost {
		t.Errorf("follower cost %.0f not recomputed from its own gates (leader %.0f)",
			got[2].Cost, got[0].Cost)
	}
	if got[2].Hit || got[2].Work != 0 {
		t.Errorf("follower should report no simulated work and no cache hit, got %+v", got[2])
	}

	st := e.Stats()
	if st.BatchDedupHits != 1 {
		t.Errorf("BatchDedupHits = %d, want 1", st.BatchDedupHits)
	}
	if st.Simulations != 2 {
		t.Errorf("Simulations = %d, want 2 (follower must not simulate)", st.Simulations)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 (dedup share is not a cache hit)", st.CacheHits)
	}
	snap := reg.Snapshot()
	if snap.Counters["engine/batch/dedup_hits"] != 1 {
		t.Errorf("engine/batch/dedup_hits = %d, want 1", snap.Counters["engine/batch/dedup_hits"])
	}

	// The follower owns its memo entry: re-asking for it is a plain
	// cache hit with the follower's own cost.
	v, err := e.EvaluateOne(context.Background(), reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !v.Hit || v.Cost != got[2].Cost {
		t.Errorf("follower re-evaluation = %+v, want cache hit with cost %.0f", v, got[2].Cost)
	}
}

// TestEvaluateBatchSpill: a fingerprint group with a single leader is
// served by a one-member batch, bit-exact against the per-request path.
func TestEvaluateBatchSpill(t *testing.T) {
	tr := testTrace(t)
	a := testArch(4096)
	r := sampled(tr, a, testConn(t, a, "ahb32"))
	e := New(2)
	got, err := e.Evaluate(context.Background(), []Request{r})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(1).computeOne(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Cost != want.Cost || got[0].Latency != want.Latency || got[0].Energy != want.Energy {
		t.Errorf("one-member batch value %+v != per-request value %+v", got[0], want)
	}
	st := e.Stats()
	if st.BatchReplays != 1 || st.BatchedEvals != 1 {
		t.Errorf("BatchReplays = %d, BatchedEvals = %d, want 1 and 1", st.BatchReplays, st.BatchedEvals)
	}
	if st.Simulations != 1 {
		t.Errorf("Simulations = %d, want 1", st.Simulations)
	}
}

// TestChunkSpan: chunks balance across the pool and respect maxBatch.
func TestChunkSpan(t *testing.T) {
	cases := []struct{ n, w, want int }{
		{2, 4, 1},
		{8, 4, 2},
		{9, 4, 3},
		{64, 1, 32},
		{65, 1, 22}, // 3 chunks of ≤22 beat 2×32 + 1×1
		{33, 2, 17},
		{1, 8, 1},
	}
	for _, c := range cases {
		if got := chunkSpan(c.n, c.w); got != c.want {
			t.Errorf("chunkSpan(%d, %d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
}
