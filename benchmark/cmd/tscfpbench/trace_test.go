package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func loadFixture(t *testing.T) []sample {
	t.Helper()
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestParseTraces(t *testing.T) {
	samples := loadFixture(t)
	if len(samples) != 13 {
		t.Fatalf("parsed %d samples, want 13", len(samples))
	}
	first := samples[0]
	if first.weight != 20*time.Millisecond || len(first.labels) != 0 || len(first.stack) != 9 {
		t.Errorf("first sample = %v %v %d frames", first.weight, first.labels, len(first.stack))
	}
	if first.stack[3] != "runtime.mPark" {
		t.Errorf("inline suffix not stripped: %q", first.stack[3])
	}
	second := samples[1]
	if second.weight != 1200*time.Millisecond || second.labels["stage"] != "calibrate" {
		t.Errorf("second sample = %v %v", second.weight, second.labels)
	}
	if got := second.stack[0]; got != "repro/internal/thermal.(*Stack).rbSweep.func1" {
		t.Errorf("leaf = %q", got)
	}
	var total time.Duration
	for _, s := range samples {
		total += s.weight
	}
	if total != 1400*time.Millisecond {
		t.Errorf("total weight = %v, want 1.4s", total)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	in := "-----------+----\n  notaduration  foo\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Error("want an error for a sample line without a weight")
	}
}

func TestLayerAttribution(t *testing.T) {
	samples := loadFixture(t)
	an := attribute(samples, func(s sample) bool { return s.labels["stage"] == "anneal" })
	want := map[string]time.Duration{
		layerBlur:  40 * time.Millisecond, // geom and asyncPreempt leaves go to the blur
		layerSTA:   10 * time.Millisecond,
		layerNet:   20 * time.Millisecond, // NetHPWL is net wirelength, not packing
		layerGC:    10 * time.Millisecond, // mallocgc under growslice
		layerPack:  10 * time.Millisecond, // memmove under growslice belongs to the caller
		layerOther: 10 * time.Millisecond, // par fan-out bookkeeping has no layer frame
	}
	for l, d := range want {
		if an.byLayer[l] != d {
			t.Errorf("anneal %s = %v, want %v", l, an.byLayer[l], d)
		}
	}
	if an.total != 100*time.Millisecond {
		t.Errorf("anneal total = %v, want 100ms", an.total)
	}
	if got := an.share(layerBlur); got != 0.4 {
		t.Errorf("blur share = %v, want 0.4", got)
	}

	run := attribute(samples, nil)
	for l, d := range map[string]time.Duration{
		layerSolve:    1200 * time.Millisecond,
		layerGC:       50 * time.Millisecond, // background mark worker + mallocgc
		layerRegistry: 10 * time.Millisecond, // syscall is a helper of os.(*File).Write
		layerHash:     10 * time.Millisecond,
		layerJSON:     20 * time.Millisecond,
		layerOther:    30 * time.Millisecond, // scheduler idle + par bookkeeping
	} {
		if run.byLayer[l] != d {
			t.Errorf("run-wide %s = %v, want %v", l, run.byLayer[l], d)
		}
	}
}

func TestFrameLayerTable(t *testing.T) {
	cases := map[string]string{
		"repro/internal/floorplan.(*AdjacencyIndex).Update":      layerVolt,
		"repro/internal/floorplan.(*Layout).AdjacentModulesInto": layerVolt,
		"repro/internal/floorplan.(*Layout).PowerMapInto":        layerRaster,
		"repro/internal/geom.(*Grid).RasterizeDensity":           layerRaster,
		"repro/internal/floorplan.(*skyline).place":              layerPack,
		"repro/internal/timing.ElmoreDelay":                      layerNet,
		"repro/internal/volt.(*Assigner).grow":                   layerVolt,
		"repro/internal/thermal.(*FastEstimator).CombineInto":    layerBlur,
		"repro/internal/thermal.(*Stack).sor":                    layerSolve,
		"repro/internal/leakage.(*EntropyCache).Update":          layerEntropy,
		"repro/internal/leakage.Pearson":                         layerCorr,
		"repro/internal/core.(*incrState).perturb":               layerGlue,
		"repro/internal/activity.(*Sampler).Sample":              layerActivity,
		"net/http.(*conn).serve":                                 layerHTTP,
		"runtime.gcBgMarkWorker":                                 layerGC,
		"runtime.memmove":                                        "",
		"repro/internal/geom.(*Grid).At":                         "",
		"repro/internal/par.For.func1":                           "",
		"main.main":                                              "",
	}
	for fn, want := range cases {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
