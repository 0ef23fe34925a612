package tscfp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestPerfOptionValidation(t *testing.T) {
	design := MustBenchmark("n100")
	if _, err := NewFlow(design, WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism must fail")
	}
	if _, err := NewFlow(design, WithParallelism(0), WithCostCrossCheck(true)); err != nil {
		t.Fatalf("valid perf options rejected: %v", err)
	}
}

// TestIncrementalTogglesAgree pins the public determinism contract: for a
// fixed seed the default run and a cross-checked serial run — every
// incremental cost and entropy patch pinned against its full recompute —
// produce the identical result JSON (stats and runtime aside).
func TestIncrementalTogglesAgree(t *testing.T) {
	design := MustBenchmark("n100")
	run := func(opts ...Option) *Result {
		t.Helper()
		all := append([]Option{
			WithMode(TSCAware),
			WithIterations(150),
			WithGridN(16),
			WithPostProcess(false),
			WithSeed(5),
		}, opts...)
		res, err := Run(context.Background(), design, all...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	canon := func(r *Result) string {
		r.Metrics.RuntimeSec = 0
		r.Stats = RunStats{}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	inc := run(WithParallelism(0))
	if inc.Stats.IncrementalEvals == 0 || inc.Stats.Evals == 0 {
		t.Fatalf("stats not recorded: %+v", inc.Stats)
	}
	if inc.Stats.VoltRefreshes == 0 {
		t.Fatalf("voltage refreshes not recorded: %+v", inc.Stats)
	}
	if inc.Stats.EntropyPatched == 0 {
		t.Fatalf("default run never engaged the entropy cache: %+v", inc.Stats)
	}
	if !inc.Stats.SolverConverged || inc.Stats.SolverSweeps == 0 {
		t.Fatalf("solver stats not recorded: %+v", inc.Stats)
	}
	checked := run(WithCostCrossCheck(true), WithParallelism(1))
	if checked.Stats.Evals == 0 {
		t.Fatal("cross-checked run recorded no evals")
	}
	if checked.Core().EvalStats.CrossChecks == 0 {
		t.Fatalf("costs were not cross-checked: %+v", checked.Core().EvalStats)
	}
	if checked.Stats.EntropyCrossChecks == 0 {
		t.Fatalf("entropy patches were not cross-checked: %+v", checked.Stats)
	}
	if canon(checked) != canon(inc) {
		t.Fatal("cross-checked serial run disagrees with the default run")
	}
}

// TestChurnStatsWire pins the churn-counter contract: the exact-diff
// repack counters are core-only diagnostics, so no pack_* key ever reaches
// the Result encoding, while Core().EvalStats reports real churn — moves,
// die diffs, changed modules and ordered percentiles.
func TestChurnStatsWire(t *testing.T) {
	res, err := Run(context.Background(), MustBenchmark("n100"),
		WithMode(TSCAware), WithIterations(120), WithGridN(16),
		WithPostProcess(false), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"pack_`)) {
		t.Fatal("pack_* churn keys leaked into the encoding")
	}
	s := &res.Core().EvalStats
	if s.PackMoves == 0 || s.PackDieDiffs == 0 || s.PackChangedModules == 0 {
		t.Fatalf("run reported no churn: %+v", s)
	}
	p50, p95 := s.PackChangedPercentile(0.50), s.PackChangedPercentile(0.95)
	if p50 <= 0 || p95 < p50 {
		t.Fatalf("percentiles not ordered: p50=%d p95=%d", p50, p95)
	}
}
