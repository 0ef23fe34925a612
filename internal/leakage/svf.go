package leakage

import (
	"math"

	"repro/internal/geom"
)

// SVF computes the side-channel vulnerability factor after Demme et al.
// (ISCA 2012), the metric the paper grounds its correlation measure in
// (Sec. 4.1): the Pearson correlation between the pairwise-similarity
// structure of the victim's execution (here: power maps over activity
// samples) and that of the attacker's observations (thermal maps over the
// same samples).
//
// For each pair of samples (i, j), the "oracle" distance is the Euclidean
// distance between power maps i and j, and the "side channel" distance is
// the Euclidean distance between the corresponding thermal maps; SVF is the
// correlation of the two distance vectors. SVF near 1 means the side
// channel faithfully preserves the structure of the secret activity; near 0
// means the leakage carries no exploitable structure.
func SVF(powers, temps []*geom.Grid) float64 {
	m := len(powers)
	if m < 3 || len(temps) != m {
		return 0
	}
	var dp, dt []float64
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			dp = append(dp, gridDistance(powers[i], powers[j]))
			dt = append(dt, gridDistance(temps[i], temps[j]))
		}
	}
	return pearsonSlices(dp, dt)
}

// gridDistance returns the Euclidean distance between two equally-sized
// grids.
func gridDistance(a, b *geom.Grid) float64 {
	s := 0.0
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}
