package accel_test

import (
	"testing"

	"autoax/internal/accel"
	"autoax/internal/apps"
	"autoax/internal/imagedata"
	"autoax/internal/pmf"
)

// gprogApps returns the differential tests' accelerators: the three case
// studies (the generic Gaussian filter with two coefficient sets) and
// randomGraph seeds 1–n, each random input bound to a window tap.
func gprogApps(t *testing.T, n int) []*accel.ImageApp {
	t.Helper()
	out := []*accel.ImageApp{apps.Sobel(), apps.FixedGF(), apps.GenericGF(apps.GenericGFKernels(2))}
	for seed := int64(1); seed <= int64(n); seed++ {
		g := randomGraph(seed)
		app := &accel.ImageApp{Name: g.Name, Graph: g, Sims: [][]uint64{{}}}
		for i := range g.Inputs {
			app.Taps = append(app.Taps, accel.WindowTap{DX: i%3 - 1, DY: i/3%3 - 1})
		}
		if err := app.Validate(); err != nil {
			t.Fatalf("random graph %d: %v", seed, err)
		}
		out = append(out, app)
	}
	return out
}

// gprogImages are two images of 13×11 pixels: 143 lanes, so every image
// ends in a partial 64-lane block.
func gprogImages() []*imagedata.Image { return imagedata.BenchmarkSet(2, 13, 11, 3) }

// exactInputs returns the graph inputs of pixel p of im under sim: the
// window pixels, then the simulation's values.
func exactInputs(app *accel.ImageApp, im *imagedata.Image, sim []uint64, p int) []uint64 {
	in := make([]uint64, 0, len(app.Graph.Inputs))
	for _, tap := range app.Taps {
		in = append(in, uint64(im.AtClamped(p%im.W+tap.DX, p/im.W+tap.DY)))
	}
	return append(in, sim...)
}

// TestExactOutputMatchesEvalExact compares the compiled graph program's
// lane outputs (ExactOutput) pixel for pixel with the frozen node-by-node
// model, over every simulation and image.
func TestExactOutputMatchesEvalExact(t *testing.T) {
	images := gprogImages()
	for _, app := range gprogApps(t, 40) {
		for si, sim := range app.Sims {
			for ii, im := range images {
				got := app.ExactOutput(im, sim)
				for p := range im.Pix {
					want := app.Graph.EvalExact(exactInputs(app, im, sim, p))[0]
					if uint64(got.Pix[p]) != want {
						t.Fatalf("%s sim %d image %d pixel %d: gprog %d, EvalExact %d",
							app.Name, si, ii, p, got.Pix[p], want)
					}
				}
			}
		}
	}
}

// TestProfileMatchesRecount compares Profile's operand PMFs with a recount
// of every operation node's operands under the frozen model: the same
// support, and bit for bit the same normalized mass on every pair.
func TestProfileMatchesRecount(t *testing.T) {
	images := gprogImages()
	for _, app := range gprogApps(t, 10) {
		got := app.Profile(images)
		ops := app.Graph.OpNodes()
		want := make([]*pmf.PMF, len(ops))
		for i, id := range ops {
			w := app.Graph.Nodes[id].Op.Width
			want[i] = pmf.New(w, w)
		}
		for _, sim := range app.Sims {
			for _, im := range images {
				for p := range im.Pix {
					vals := app.Graph.EvalExactNodes(exactInputs(app, im, sim, p))
					for i, id := range ops {
						args := app.Graph.Nodes[id].Args
						want[i].Add(vals[args[0]], vals[args[1]], 1)
					}
				}
			}
		}
		for i, w := range want {
			w.Normalize()
			if g, n := got[i].SupportSize(), w.SupportSize(); g != n {
				t.Fatalf("%s op %d: support %d, recount %d", app.Name, i, g, n)
			}
			w.ForEach(func(a, b uint64, m float64) {
				if g := got[i].Prob(a, b); g != m {
					t.Fatalf("%s op %d pair (%d,%d): mass %v, recount %v", app.Name, i, a, b, g, m)
				}
			})
		}
	}
}
