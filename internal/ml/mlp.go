package ml

import (
	"math"
	"math/rand"
	"slices"
)

// MLP is a multilayer perceptron regressor: ReLU hidden layers trained by
// mini-batch Adam on the squared loss (scikit-learn defaults: one hidden
// layer of 100 units, lr 1e-3, 200 epochs, batch 32… scaled-down epochs
// are configurable).  Inputs are standardized internally; targets are not.
type MLP struct {
	Hidden []int
	Epochs int
	LR     float64
	Batch  int
	seed   int64

	scaler  *Scaler
	weights [][]float64 // per layer: (in+1)×out, row-major with bias row
	dims    []int
}

// NewMLP returns an MLP with the given hidden layer sizes and epoch count.
func NewMLP(hidden []int, epochs int, seed int64) *MLP {
	return &MLP{Hidden: hidden, Epochs: epochs, LR: 1e-3, Batch: 32, seed: seed}
}

// Fit implements Regressor.
func (m *MLP) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	m.scaler = FitScaler(x)
	xs := m.scaler.Transform(x)
	d := len(xs[0])
	m.dims = append(append([]int{d}, m.Hidden...), 1)
	rng := rand.New(rand.NewSource(m.seed))

	layers := len(m.dims) - 1
	m.weights = make([][]float64, layers)
	for l := 0; l < layers; l++ {
		in, out := m.dims[l], m.dims[l+1]
		w := make([]float64, (in+1)*out)
		// Glorot-uniform initialization.
		limit := math.Sqrt(6.0 / float64(in+out))
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.weights[l] = w
	}
	// Adam state.
	mom := make([][]float64, layers)
	vel := make([][]float64, layers)
	grad := make([][]float64, layers)
	for l := range mom {
		mom[l] = make([]float64, len(m.weights[l]))
		vel[l] = make([]float64, len(m.weights[l]))
		grad[l] = make([]float64, len(m.weights[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	// Per-layer activations and deltas, allocated once per fit.  acts[0]
	// aliases the current standardized sample.
	n := len(xs)
	acts := make([][]float64, layers+1)
	deltas := make([][]float64, layers+1)
	for l := 1; l <= layers; l++ {
		acts[l] = make([]float64, m.dims[l])
		deltas[l] = make([]float64, m.dims[l])
	}
	nz := make([]int, 0, slices.Max(m.dims))
	for ep := 0; ep < m.Epochs; ep++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += m.Batch {
			end := start + m.Batch
			if end > n {
				end = n
			}
			for l := range grad {
				clear(grad[l])
			}
			for _, pi := range perm[start:end] {
				// Forward.
				acts[0] = xs[pi]
				for l := 0; l < layers; l++ {
					layerForward(acts[l+1], acts[l], m.weights[l], l < layers-1)
				}
				// Backward (squared loss).  Units with a zero delta add
				// nothing to the gradient; gather the rest once per layer
				// (branch-free: the pattern is data-dependent).
				deltas[layers][0] = acts[layers][0] - y[pi]
				for l := layers - 1; l >= 0; l-- {
					in, out := m.dims[l], m.dims[l+1]
					w := m.weights[l]
					g := grad[l]
					dl := deltas[l+1]
					nz = nz[:len(dl)]
					k := 0
					for o, do := range dl {
						nz[k] = o
						if do != 0 {
							k++
						}
					}
					for _, o := range nz[:k] {
						do := dl[o]
						for i2, ai := range acts[l] {
							g[i2*out+o] += do * ai
						}
						g[in*out+o] += do
					}
					if l > 0 {
						// Inactive units (ReLU output ≤ 0) get delta +0;
						// the product is computed for every unit and
						// masked, again without a data-dependent branch.
						prev := deltas[l]
						for i2, ai := range acts[l] {
							s := 0.0
							for o, wo := range w[i2*out:][:out] {
								s += wo * dl[o]
							}
							prev[i2] = zeroIf(s, ai <= 0)
						}
					}
				}
			}
			// Adam update.
			step++
			bs := float64(end - start)
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for l := range m.weights {
				w, g, mo, ve := m.weights[l], grad[l], mom[l], vel[l]
				for i := range w {
					gi := g[i] / bs
					mo[i] = beta1*mo[i] + (1-beta1)*gi
					ve[i] = beta2*ve[i] + (1-beta2)*gi*gi
					w[i] -= m.LR * (mo[i] / bc1) / (math.Sqrt(ve[i]/bc2) + eps)
				}
			}
		}
	}
	return nil
}

// Predict implements Regressor.
func (m *MLP) Predict(q []float64) float64 {
	a := m.scaler.TransformRow(q)
	layers := len(m.dims) - 1
	for l := 0; l < layers; l++ {
		next := make([]float64, m.dims[l+1])
		layerForward(next, a, m.weights[l], l < layers-1)
		a = next
	}
	return a[0]
}

// layerForward sets a to the layer's output for input x: w is the
// (len(x)+1)×len(a) row-major weight matrix with the bias row last.  Each
// unit sums its bias first, then the inputs in order; the loops run
// inputs outer (four at a time) and units inner so every pass streams
// contiguous weight rows.
func layerForward(a, x, w []float64, relu bool) {
	out := len(a)
	if out < 4 { // too narrow to stream rows: one dot product per unit
		for o := range a {
			s := w[len(x)*out+o]
			for i, xi := range x {
				s += w[i*out+o] * xi
			}
			if relu {
				s = zeroIf(s, s < 0)
			}
			a[o] = s
		}
		return
	}
	copy(a, w[len(x)*out:])
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		w0 := w[i*out:][:len(a)]
		w1 := w[(i+1)*out:][:len(a)]
		w2 := w[(i+2)*out:][:len(a)]
		w3 := w[(i+3)*out:][:len(a)]
		for o := range a {
			s := a[o]
			s += w0[o] * x0
			s += w1[o] * x1
			s += w2[o] * x2
			s += w3[o] * x3
			a[o] = s
		}
	}
	for ; i < len(x); i++ {
		xi := x[i]
		for o, wo := range w[i*out:][:len(a)] {
			a[o] += wo * xi
		}
	}
	if relu {
		for o, s := range a {
			a[o] = zeroIf(s, s < 0)
		}
	}
}

// zeroIf returns +0 when c holds and v otherwise; the select compiles to
// a conditional move on the bit pattern instead of a branch.
func zeroIf(v float64, c bool) float64 {
	b := math.Float64bits(v)
	if c {
		b = 0
	}
	return math.Float64frombits(b)
}
