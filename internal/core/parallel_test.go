package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// parCfg is fastCfg with the parallel-anneal knobs set.
func parCfg(mode Mode, seed int64, replicas, speculation int) Config {
	cfg := fastCfg(mode, seed)
	cfg.Replicas = replicas
	cfg.Speculation = speculation
	return cfg
}

// stripRuntime zeroes the wall-clock field so results can be compared.
func stripRuntime(res *Result) Metrics {
	m := res.Metrics
	m.RuntimeSec = 0
	return m
}

// TestRunReplicasOneIsSerial pins the flow-identity half of the determinism
// contract at the config level: Replicas=1 / Speculation=1 must route
// through the serial annealing path and reproduce the plain config's run
// byte-for-byte (the golden fixtures pin the same property end to end).
func TestRunReplicasOneIsSerial(t *testing.T) {
	des := bench.MustGenerate("n100")
	serial, err := Run(des, fastCfg(TSCAware, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg(TSCAware, 7, 1, 1)
	one, err := Run(des, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripRuntime(serial), stripRuntime(one)) {
		t.Fatal("Replicas=1/Speculation=1 diverged from the serial flow")
	}
	if !reflect.DeepEqual(one.EvalStats, serial.EvalStats) {
		t.Fatalf("eval stats diverged:\n got %+v\nwant %+v", one.EvalStats, serial.EvalStats)
	}
	if one.EvalStats.ReplicaCount != 0 || one.EvalStats.SpecWorkers != 0 {
		t.Fatal("serial path must not report parallel-anneal stats")
	}
}

// TestRunReplicasDeterministicAcrossGOMAXPROCS is the flow half of the
// determinism contract: a fixed (Seed, Replicas, Speculation) triple must
// yield identical metrics, stats, and layout for any GOMAXPROCS. The -cpu
// 1,4,8 runs in CI cover the same property via the golden-fixture test; this
// pins it in-process either way.
func TestRunReplicasDeterministicAcrossGOMAXPROCS(t *testing.T) {
	des := bench.MustGenerate("n100")
	run := func() *Result {
		res, err := Run(des, parCfg(TSCAware, 11, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var ref *Result
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		res := run()
		runtime.GOMAXPROCS(old)
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(stripRuntime(ref), stripRuntime(res)) {
			t.Fatalf("GOMAXPROCS=%d: metrics diverged", procs)
		}
		if !reflect.DeepEqual(ref.EvalStats, res.EvalStats) {
			t.Fatalf("GOMAXPROCS=%d: eval stats diverged:\n got %+v\nwant %+v",
				procs, res.EvalStats, ref.EvalStats)
		}
		if !reflect.DeepEqual(ref.Layout.Rects, res.Layout.Rects) ||
			!reflect.DeepEqual(ref.Layout.DieOf, res.Layout.DieOf) {
			t.Fatalf("GOMAXPROCS=%d: layout diverged", procs)
		}
	}
}

// TestRunReplicasReportsStats checks the replica/speculation bookkeeping on
// a tempered run and that the result passes the full validity bar.
func TestRunReplicasReportsStats(t *testing.T) {
	des := bench.MustGenerate("n100")
	res, err := Run(des, parCfg(TSCAware, 5, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	s := res.EvalStats
	if s.ReplicaCount != 3 || s.SpecWorkers != 2 {
		t.Fatalf("shape not recorded: ReplicaCount=%d SpecWorkers=%d", s.ReplicaCount, s.SpecWorkers)
	}
	if s.ReplicaSwapAttempts == 0 {
		t.Fatal("no temperature swaps attempted over a 3-replica run")
	}
	if s.ReplicaSwapAccepts > s.ReplicaSwapAttempts {
		t.Fatalf("swap accepts %d exceed attempts %d", s.ReplicaSwapAccepts, s.ReplicaSwapAttempts)
	}
	if s.ReplicaBest < 0 || s.ReplicaBest >= 3 {
		t.Fatalf("best replica index %d out of range", s.ReplicaBest)
	}
	if s.SpecBatches == 0 || s.SpecCommits == 0 {
		t.Fatalf("speculation did no work: %+v", s)
	}
	// 3 replicas x 2 copies plus the normalization bootstrap all evaluate.
	if s.Evals <= 150 {
		t.Fatalf("only %d evals across a 3x2 fleet with a 150-move budget", s.Evals)
	}
}

// TestRunReplicasCrossCheck runs -check-cost inside every replica: each of
// the K x M evaluators carries its own incremental caches and each is pinned
// against the full recompute on every move. The regime (3 replicas, 150
// iterations) is long enough that speculative batches reject candidates
// folded with a pending committed-winner replay — the path where a dropped
// pending move used to leave the cached layout stale on the loser copies.
func TestRunReplicasCrossCheck(t *testing.T) {
	des := bench.MustGenerate("n100")
	cfg := parCfg(TSCAware, 9, 3, 2)
	cfg.SAIterations = 150
	cfg.CostCrossCheck = true
	res, err := Run(des, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.EvalStats
	if s.CrossChecks == 0 {
		t.Fatal("cross-check did not run inside the replicas")
	}
	if s.MaxCrossCheckError > 1e-9 {
		t.Fatalf("incremental cost drifted %g inside a replica", s.MaxCrossCheckError)
	}
}

// TestRunReplicasCancellation cancels mid-anneal via the progress callback
// and expects the flow to return the context error with no partial result.
func TestRunReplicasCancellation(t *testing.T) {
	des := bench.MustGenerate("n100")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := parCfg(TSCAware, 3, 2, 1)
	cfg.SAIterations = 100000
	cfg.Progress = func(ev ProgressEvent) {
		if ev.Stage == StageAnneal && ev.Done > 0 {
			cancel()
		}
	}
	res, err := RunContext(ctx, des, cfg)
	if err == nil {
		t.Fatal("cancelled parallel run returned no error")
	}
	if res != nil {
		t.Fatal("cancelled run must not return a partial result")
	}
}

// TestConfigParallelismDefaultsSerialUnderReplicas pins the oversubscription
// rule: replica/speculation runs default the nested thermal fan-out to the
// serial path unless Parallelism is set explicitly.
func TestConfigParallelismDefaultsSerialUnderReplicas(t *testing.T) {
	cfg := Config{Replicas: 4}
	cfg.defaults()
	if cfg.Parallelism != 1 {
		t.Fatalf("Replicas>1 left Parallelism=%d, want the serial default", cfg.Parallelism)
	}
	cfg = Config{Speculation: 2}
	cfg.defaults()
	if cfg.Parallelism != 1 {
		t.Fatalf("Speculation>1 left Parallelism=%d, want the serial default", cfg.Parallelism)
	}
	cfg = Config{Replicas: 4, Parallelism: 3}
	cfg.defaults()
	if cfg.Parallelism != 3 {
		t.Fatal("explicit Parallelism must win over the replica default")
	}
	cfg = Config{}
	cfg.defaults()
	if cfg.Parallelism != 0 {
		t.Fatal("serial runs must keep the GOMAXPROCS thermal fan-out")
	}
}
