package accel_test

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/cell"
	"autoax/internal/imagedata"
	"autoax/internal/netlist"
)

// oracleActivityBlocks spells out, bit by bit, the input blocks whose
// switching activity Evaluate counts: simulation 0 over image 0's first
// ActivityBatches/BlockWords blocks of BlockWords×64 row-major pixels,
// each with its count of valid lanes.  Tap input t's bit k is plane 8t+k;
// the simulation's extra inputs follow, each bit broadcast to every word.
func oracleActivityBlocks(app *accel.ImageApp, im *imagedata.Image) (blocks [][]uint64, lanes []int) {
	const W = netlist.BlockWords
	g := app.Graph
	var extra []uint64 // one broadcast word per extra input bit
	for xi, id := range g.Inputs[len(app.Taps):] {
		for k := 0; k < g.Nodes[id].Width; k++ {
			word := uint64(0)
			if app.Sims[0][xi]>>uint(k)&1 != 0 {
				word = ^uint64(0)
			}
			extra = append(extra, word)
		}
	}
	total := im.W * im.H
	for base := 0; base < total && len(blocks) < accel.ActivityBatches/W; base += W * 64 {
		n := min(total-base, W*64)
		block := make([]uint64, (8*len(app.Taps)+len(extra))*W)
		for t, tap := range app.Taps {
			for l := 0; l < n; l++ {
				p := base + l
				v := uint64(im.AtClamped(p%im.W+tap.DX, p/im.W+tap.DY))
				for k := 0; k < 8; k++ {
					block[(8*t+k)*W+l/64] |= (v >> uint(k) & 1) << uint(l%64)
				}
			}
		}
		for j, word := range extra {
			for w := 0; w < W; w++ {
				block[(8*len(app.Taps)+j)*W+w] = word
			}
		}
		blocks = append(blocks, block)
		lanes = append(lanes, n)
	}
	return blocks, lanes
}

// oracleActivityCost is the test-side power and energy of one
// configuration.  It compiles a copy of the simplified netlist whose
// outputs are its gates, in order, so every gate's value comes out of
// EvalBlock as an output; counts each gate's ones under the per-word lane
// masks; and applies α = 2p(1−p) per gate, summed in gate order, with
// cell.Energy and Analyze's leakage.
func oracleActivityCost(simp *netlist.Netlist, blocks [][]uint64, lanes []int) (power, energy float64) {
	const W = netlist.BlockWords
	probe := simp.Clone()
	probe.Outputs = probe.Outputs[:0]
	for i := range simp.Gates {
		probe.Outputs = append(probe.Outputs, netlist.Signal(simp.NumInputs+i))
	}
	prog := netlist.Compile(probe)
	ones := make([]uint64, len(simp.Gates))
	var total int64
	for k, block := range blocks {
		out := prog.EvalBlock(block, nil, nil)
		for i := range ones {
			for w := 0; w < W; w++ {
				valid := min(max(lanes[k]-w*64, 0), 64)
				mask := uint64(0)
				if valid > 0 {
					mask = ^uint64(0) >> uint(64-valid)
				}
				ones[i] += uint64(bits.OnesCount64(out[i*W+w] & mask))
			}
		}
		total += int64(lanes[k])
	}
	var switchEnergy float64
	for i, g := range simp.Gates {
		p := float64(ones[i]) / float64(total)
		alpha := 2 * p * (1 - p)
		switchEnergy += alpha * cell.Energy(g.Kind)
	}
	leakage := simp.Analyze().Leakage
	period := 1e3 / netlist.NominalClock
	return leakage*1e-3 + switchEnergy/period, switchEnergy + leakage*period*1e-3
}

// TestEvaluateActivityOracle pins Evaluate's Power, Energy and Gates bit
// for bit to the test-side activity count over generated configurations
// of the three case studies.  A 32×24 first image leaves the second
// input block partial; a 16×16 first image is one block, so the count
// must stop there and not spill into the next image.
func TestEvaluateActivityOracle(t *testing.T) {
	cases := []*accel.ImageApp{apps.Sobel(), apps.FixedGF(), apps.GenericGF(apps.GenericGFKernels(2))}
	seen := map[acl.Op]bool{}
	var specs []acl.BuildSpec
	for _, app := range cases {
		for op := range app.Graph.OpCounts() {
			if !seen[op] {
				seen[op] = true
				specs = append(specs, acl.BuildSpec{Op: op, Count: 3})
			}
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Op.String() < specs[j].Op.String() })
	lib, err := acl.Build(specs, 1, acl.Options{Samples: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	imageSets := [][]*imagedata.Image{
		{imagedata.Synthetic(32, 24, 1), imagedata.Synthetic(16, 16, 2)},
		{imagedata.Synthetic(16, 16, 3), imagedata.Synthetic(32, 24, 4)},
	}
	rng := rand.New(rand.NewSource(35))
	for _, app := range cases {
		for si, images := range imageSets {
			ev, err := accel.NewEvaluator(app, images)
			if err != nil {
				t.Fatal(err)
			}
			blocks, lanes := oracleActivityBlocks(app, images[0])
			for trial := 0; trial < 4; trial++ {
				var cfg accel.Configuration
				for _, id := range app.Graph.OpNodes() {
					cs := lib.For(app.Graph.Nodes[id].Op)
					cfg = append(cfg, cs[rng.Intn(len(cs))])
				}
				got, err := ev.Evaluate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := accel.Flatten(app.Graph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				simp := netlist.Simplify(flat)
				power, energy := oracleActivityCost(simp, blocks, lanes)
				if math.Float64bits(got.Power) != math.Float64bits(power) ||
					math.Float64bits(got.Energy) != math.Float64bits(energy) ||
					got.Gates != len(simp.Gates) {
					t.Fatalf("%s, image set %d, trial %d: power %v energy %v gates %d, oracle %v %v %d",
						app.Name, si, trial, got.Power, got.Energy, got.Gates, power, energy, len(simp.Gates))
				}
			}
		}
	}
}
