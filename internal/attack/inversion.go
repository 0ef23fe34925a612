package attack

import (
	"math"

	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/thermal"
)

// InversionResult reports the temperature-to-power inversion attack: the
// paper lists "temperature-to-power interpolation techniques such as
// [PowerField]" as the third reason the TSC is attractive — the thermal
// side channel proxies the power side channel. The attacker observes the
// steady-state thermal maps, knows (or calibrates) the stack's thermal
// response, and reconstructs the per-die power maps by regularized
// deconvolution.
type InversionResult struct {
	// EstPower[d] is the reconstructed power map of die d (W per cell,
	// same grid as the observation).
	EstPower []*geom.Grid
	// Fidelity[d] is the Pearson correlation between the reconstruction
	// and the true power map — the attack's success measure (1 = the
	// thermal channel fully exposes the power channel).
	Fidelity []float64
	// Iterations actually used.
	Iterations int
}

// InversionOptions tunes the deconvolution.
type InversionOptions struct {
	// Iterations of projected Landweber descent. Default 200.
	Iterations int
	// Step is the gradient step relative to the operator norm estimate.
	// Default 0.5.
	Step float64
}

func (o *InversionOptions) defaults() {
	if o.Iterations == 0 {
		o.Iterations = 200
	}
	if o.Step == 0 {
		o.Step = 0.5
	}
}

// InvertPower reconstructs power maps from observed temperature maps using
// the calibrated fast thermal model: projected Landweber iteration
// (gradient descent on ||T_obs - F(P)||^2 with P >= 0).
//
// obs are the observed per-die temperature maps in K (ambient included);
// truePower, when non-nil, is used to score Fidelity.
func InvertPower(fe *thermal.FastEstimator, obs []*geom.Grid, truePower []*geom.Grid, ambient float64, opts InversionOptions) InversionResult {
	opts.defaults()
	dies := fe.Dies()
	nx, ny := obs[0].NX, obs[0].NY

	// Work on temperature rises.
	rises := make([]*geom.Grid, dies)
	for d := 0; d < dies; d++ {
		r := obs[d].Clone()
		for i := range r.Data {
			r.Data[i] -= ambient
		}
		rises[d] = r
	}

	// Estimate the operator norm from one power iteration to scale the
	// gradient step: lambda_max ~ ||F^T F x|| / ||x||.
	x := make([]*geom.Grid, dies)
	for d := 0; d < dies; d++ {
		g := geom.NewGrid(nx, ny)
		g.Fill(1)
		x[d] = g
	}
	fx := fe.Adjoint(fe.Rises(x))
	num, den := 0.0, 0.0
	for d := 0; d < dies; d++ {
		for i := range fx[d].Data {
			num += fx[d].Data[i] * fx[d].Data[i]
			den += x[d].Data[i] * fx[d].Data[i]
		}
	}
	lambdaMax := 1.0
	if den > 0 {
		lambdaMax = num / den
	}
	step := opts.Step / lambdaMax

	// Projected Landweber.
	est := make([]*geom.Grid, dies)
	for d := 0; d < dies; d++ {
		est[d] = geom.NewGrid(nx, ny)
	}
	res := InversionResult{EstPower: est}
	for it := 0; it < opts.Iterations; it++ {
		pred := fe.Rises(est)
		for d := 0; d < dies; d++ {
			pred[d].SubGrid(rises[d])
			pred[d].ScaleBy(-1) // residual = rises - F(est)
		}
		grad := fe.Adjoint(pred)
		for d := 0; d < dies; d++ {
			for i := range est[d].Data {
				v := est[d].Data[i] + step*grad[d].Data[i]
				if v < 0 {
					v = 0
				}
				est[d].Data[i] = v
			}
		}
		res.Iterations = it + 1
	}

	if truePower != nil {
		res.Fidelity = make([]float64, dies)
		for d := 0; d < dies; d++ {
			res.Fidelity[d] = leakage.Pearson(truePower[d], est[d])
		}
	}
	return res
}

// InvertDevice runs the inversion attack end-to-end against a Device: the
// attacker reads the nominal steady state through the sensors, takes the
// fast model of the same stack configuration (calibrated already by the
// device's flow, when it ran in this process), and reconstructs the power
// maps. Returns the reconstruction scored against the device's true
// (voltage-scaled) power maps.
func InvertDevice(d *Device, opts InversionOptions) InversionResult {
	obs := d.Respond(d.ones())
	cfg := thermal.DefaultConfig(d.gridN, d.gridN, d.res.Layout.OutlineW, d.res.Layout.OutlineH, d.Dies())
	fe := thermal.Fast(cfg, 0)
	truth := make([]*geom.Grid, d.Dies())
	for die := 0; die < d.Dies(); die++ {
		truth[die] = d.res.PowerMaps[die]
	}
	r := InvertPower(fe, obs, truth, cfg.Ambient, opts)
	d.Reset()
	return r
}

// MeanFidelity averages the per-die fidelities.
func (r InversionResult) MeanFidelity() float64 {
	if len(r.Fidelity) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, f := range r.Fidelity {
		s += f
	}
	return s / float64(len(r.Fidelity))
}
