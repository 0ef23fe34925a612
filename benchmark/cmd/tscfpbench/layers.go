package main

import "strings"

// A layer rule assigns a profile frame to a layer when the frame's function
// name starts with prefix.
type layerRule struct {
	prefix string
	layer  string
}

// Layer names used by the CPU attribution. Anneal-stage metrics report the
// first block; run-wide metrics add the solver and the service layers.
const (
	layerPack    = "floorplan.pack"
	layerRaster  = "floorplan.raster"
	layerNet     = "timing.net"
	layerSTA     = "timing.sta"
	layerVolt    = "volt.refresh"
	layerBlur    = "thermal.blur"
	layerEntropy = "leakage.entropy"
	layerCorr    = "leakage.corr"
	layerGlue    = "core.glue"

	layerSolve    = "thermal.solve"
	layerActivity = "activity.sample"
	layerTSV      = "tsv.plan"
	layerGC       = "runtime.gc"
	layerHTTP     = "server.http"
	layerJSON     = "tscfp.json"
	layerHash     = "crypto.hash"
	layerRegistry = "registry.io"
	layerOther    = "other"
)

// annealLayers are the layers of one annealing move, in report order.
var annealLayers = []string{layerPack, layerRaster, layerNet, layerSTA, layerVolt, layerBlur, layerEntropy, layerCorr, layerGlue}

// runLayers are the run-wide layers reported besides runtime.gc and other.
var runLayers = []string{layerSolve, layerHTTP, layerJSON, layerHash, layerRegistry}

const pkg = "repro/internal/"

// layerRules is the function-name → layer table, most specific first. A
// frame that matches no rule (geom accessors, par fan-out, math, sort,
// non-GC runtime, syscall) is a helper: its samples go to the nearest caller
// that does match, so copying and arithmetic count for the layer that asked
// for them.
var layerRules = []layerRule{
	// Adjacency index and sweep feed the voltage engine.
	{pkg + "floorplan.(*AdjacencyIndex)", layerVolt},
	{pkg + "floorplan.(*Layout).AdjacentModules", layerVolt},
	{pkg + "floorplan.(*Layout).PowerMap", layerRaster},
	{pkg + "geom.(*Grid).Rasterize", layerRaster},
	{pkg + "floorplan.(*Layout).NetHPWL", layerNet},
	{pkg + "floorplan.(*Layout).HPWL", layerNet},
	{pkg + "floorplan.", layerPack},

	{pkg + "timing.(*STACache)", layerSTA},
	{pkg + "timing.Analyze", layerSTA},
	{pkg + "timing.", layerNet},
	{pkg + "core.(*incrState).refreshNet", layerNet},
	{pkg + "core.(*incrState).patchSTA", layerSTA},
	{pkg + "core.(*incrState).refSTA", layerSTA},
	{pkg + "core.(*incrState).scaledSTA", layerSTA},
	{pkg + "core.(*incrState).refreshVoltAssignment", layerVolt},
	{pkg + "core.(*evaluator).refreshVoltage", layerVolt},
	{pkg + "core.(*incrState).dieEntropy", layerEntropy},
	{pkg + "volt.", layerVolt},

	{pkg + "thermal.(*Stack)", layerSolve},
	{pkg + "thermal.(*Solution)", layerSolve},
	{pkg + "thermal.NewStack", layerSolve},
	{pkg + "thermal.", layerBlur},

	{pkg + "leakage.Pearson", layerCorr},
	{pkg + "leakage.pearson", layerCorr},
	{pkg + "leakage.MaskedPearson", layerCorr},
	{pkg + "leakage.StabilityMap", layerCorr},
	{pkg + "leakage.MeanAbsStability", layerCorr},
	{pkg + "leakage.MostStableBin", layerCorr},
	{pkg + "leakage.SVF", layerCorr},
	{pkg + "leakage.gridDistance", layerCorr},
	{pkg + "leakage.", layerEntropy},

	{pkg + "activity.", layerActivity},
	{pkg + "tsv.", layerTSV},
	{pkg + "core.", layerGlue},
	{pkg + "anneal.", layerGlue},
	{pkg + "netlist.", layerGlue},
	{"math/rand.", layerGlue},

	{pkg + "registry.", layerRegistry},
	{"os.", layerRegistry},
	{"path/filepath.", layerRegistry},
	{"io/fs.", layerRegistry},
	{"crypto/", layerHash},
	{"encoding/hex.", layerHash},
	{"encoding/json.", layerJSON},
	{"repro/tscfp.", layerJSON},
	{pkg + "server.", layerHTTP},
	{"net/", layerHTTP},
	{"net.", layerHTTP},
	{"bufio.", layerHTTP},
	{"mime", layerHTTP},
}

// gcFragments mark a runtime frame as allocation or garbage-collection work.
var gcFragments = []string{
	"mallocgc", "newobject", "makeslice", "gcBgMarkWorker", "gcDrain", "gcAssist",
	"scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "markroot",
	"gcmarknewobject", "bgsweep", "sweepone", "bgscavenge", "gcStart", "gcMark",
	"(*mspan)", "(*mcache)", "(*mheap)", "(*mcentral)", "(*sweepLocked)",
	"(*gcWork)", "(*pageAlloc)", "wbBuf", "gcWriteBarrier", "bulkBarrier",
	"findObject", "heapSetType", "typePointers",
}

// frameLayer returns the layer of one frame, or "" for a helper frame.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		for _, g := range gcFragments {
			if strings.Contains(fn, g) {
				return layerGC
			}
		}
		return ""
	}
	for _, r := range layerRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer
		}
	}
	return ""
}

// stackLayer assigns a sample to the layer of its leaf-most non-helper
// frame (stack[0] is the leaf); a stack of helpers only is "other".
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return layerOther
}
