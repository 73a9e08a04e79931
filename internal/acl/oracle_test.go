package acl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autoax/internal/approxgen"
	"autoax/internal/arith"
	"autoax/internal/netlist"
	"autoax/internal/pmf"
)

// Frozen oracle: Characterize exactly as it stood when every lane of every
// word was unpacked and run through the scalar error loop.  Only the
// unpack is spelled out bit by bit instead of through the transpose, so
// the oracle shares no kernel with the path it checks.  Nothing outside
// the oracle tests may call it.
func oracleCharacterize(nl *netlist.Netlist, op Op, family string, opts Options) (*Circuit, error) {
	opts = opts.withDefaults()
	wa, wb := op.InWidths()
	if nl.NumInputs != wa+wb {
		return nil, fmt.Errorf("acl: %s has %d inputs, op %s needs %d", nl.Name, nl.NumInputs, op, wa+wb)
	}
	if len(nl.Outputs) != op.OutWidth() {
		return nil, fmt.Errorf("acl: %s has %d outputs, op %s needs %d", nl.Name, len(nl.Outputs), op, op.OutWidth())
	}
	simp := netlist.Simplify(nl)
	simp.Name = nl.Name
	c := &Circuit{Name: nl.Name, Op: op, Family: family, Netlist: simp}

	const W = netlist.BlockWords
	prog := netlist.Compile(simp)
	outW := len(simp.Outputs)
	planes := make([]uint64, (wa+wb)*W)
	scratch := make([]uint64, prog.NumSlots()*W)
	outBuf := make([]uint64, outW*W)
	var avals, bvals, ovals [W * 64]uint64
	exhaustive := wa+wb <= opts.ExhaustiveBits
	var total uint64
	if exhaustive {
		total = uint64(1) << uint(wa+wb)
	} else {
		total = uint64(opts.Samples)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	maskA := uint64(1)<<uint(wa) - 1
	maskB := uint64(1)<<uint(wb) - 1

	var (
		sumAbs, sumSq, sumRel float64
		wce                   int64
		errCount              uint64
		sig                   uint64 = fnvOffset
	)
	var activity [][]uint64
	var activityLanes []int

	for base := uint64(0); base < total; base += W * 64 {
		lanes := W * 64
		if total-base < uint64(lanes) {
			lanes = int(total - base)
		}
		if exhaustive {
			for l := 0; l < lanes; l++ {
				idx := base + uint64(l)
				avals[l] = idx >> uint(wb)
				bvals[l] = idx & maskB
			}
			for j := 0; j < wa; j++ {
				netlist.PackCounterBlock(base, uint(wb+j), lanes, planes[j*W:(j+1)*W])
			}
			for j := 0; j < wb; j++ {
				netlist.PackCounterBlock(base, uint(j), lanes, planes[(wa+j)*W:(wa+j+1)*W])
			}
		} else {
			for l := 0; l < lanes; l++ {
				avals[l] = rng.Uint64() & maskA
				bvals[l] = rng.Uint64() & maskB
			}
			netlist.PackBitsBlock(avals[:lanes], wa, W, planes[:wa*W])
			netlist.PackBitsBlock(bvals[:lanes], wb, W, planes[wa*W:])
		}
		out := prog.EvalBlock(planes, scratch, outBuf)
		for w := 0; w*64 < lanes; w++ {
			for j := 0; j < outW; j++ {
				sig = (sig ^ out[j*W+w]) * fnvPrime
			}
		}
		for l := 0; l < lanes; l++ {
			var v uint64
			for k := 0; k < outW; k++ {
				v |= (out[k*W+l/64] >> uint(l%64) & 1) << uint(k)
			}
			ovals[l] = v
		}
		for l := 0; l < lanes; l++ {
			exact := op.Value(op.Exact(avals[l], bvals[l]))
			got := op.Value(ovals[l])
			d := got - exact
			if d < 0 {
				d = -d
			}
			if d != 0 {
				errCount++
				if d > wce {
					wce = d
				}
				fd := float64(d)
				sumAbs += fd
				sumSq += fd * fd
				den := exact
				if den < 0 {
					den = -den
				}
				if den == 0 {
					den = 1
				}
				sumRel += fd / float64(den)
			}
		}
		// Each captured 64-lane word is an activity block of its own:
		// word 0 holds it, the lane count masks the rest.
		for w := 0; w*64 < lanes && len(activity) < opts.ActivityBatches; w++ {
			batch := make([]uint64, (wa+wb)*W)
			for k := 0; k < wa+wb; k++ {
				batch[k*W] = planes[k*W+w]
			}
			bl := lanes - w*64
			if bl > 64 {
				bl = 64
			}
			activity = append(activity, batch)
			activityLanes = append(activityLanes, bl)
		}
	}
	ft := float64(total)
	c.MAE = sumAbs / ft
	c.MSE = sumSq / ft
	c.MRED = sumRel / ft
	c.ErrRate = float64(errCount) / ft
	c.WCE = wce
	c.Sig = sig

	// The captured words rerun one block each, and their gate values
	// are counted from the scratch.
	ones := make([]uint64, len(simp.Gates))
	activityTotal := 0
	for k, batch := range activity {
		prog.EvalBlock(batch, scratch, outBuf)
		prog.CountOnes(scratch, activityLanes[k], ones)
		activityTotal += activityLanes[k]
	}
	cost := simp.ActivityCost(ones, activityTotal)
	c.Area = cost.Area
	c.Delay = cost.Delay
	c.Power = cost.Power
	c.Energy = cost.Energy
	c.Gates = cost.GateCount
	return c, nil
}

// sameCircuit compares every characterized field, floats bit for bit.
func sameCircuit(got, want *Circuit) error {
	type f struct {
		name      string
		got, want float64
	}
	for _, x := range []f{
		{"MAE", got.MAE, want.MAE}, {"MSE", got.MSE, want.MSE},
		{"MRED", got.MRED, want.MRED}, {"ErrRate", got.ErrRate, want.ErrRate},
		{"Area", got.Area, want.Area}, {"Delay", got.Delay, want.Delay},
		{"Power", got.Power, want.Power}, {"Energy", got.Energy, want.Energy},
	} {
		if math.Float64bits(x.got) != math.Float64bits(x.want) {
			return fmt.Errorf("%s = %v, oracle %v", x.name, x.got, x.want)
		}
	}
	switch {
	case got.WCE != want.WCE:
		return fmt.Errorf("WCE = %d, oracle %d", got.WCE, want.WCE)
	case got.Sig != want.Sig:
		return fmt.Errorf("Sig = %x, oracle %x", got.Sig, want.Sig)
	case got.Gates != want.Gates:
		return fmt.Errorf("Gates = %d, oracle %d", got.Gates, want.Gates)
	case got.Name != want.Name || got.Op != want.Op || got.Family != want.Family:
		return fmt.Errorf("identity %s/%s/%s, oracle %s/%s/%s", got.Name, got.Op, got.Family, want.Name, want.Op, want.Family)
	}
	return nil
}

// exactCircuit returns an exact netlist for op.
func exactCircuit(op Op) *netlist.Netlist {
	switch op.Kind {
	case Add:
		return arith.NewRippleCarryAdder(op.Width)
	case Sub:
		return arith.NewSubtractor(op.Width)
	}
	return arith.NewArrayMultiplier(op.Width)
}

// constCircuit returns a netlist for op whose outputs are constants or
// raw input bits, chosen by rng: its padded lanes differ from the exact
// result unless they are masked.
func constCircuit(op Op, rng *rand.Rand) *netlist.Netlist {
	wa, wb := op.InWidths()
	b := netlist.NewBuilder(fmt.Sprintf("%s_const", op), wa+wb)
	mode := rng.Intn(3)
	for k := 0; k < op.OutWidth(); k++ {
		switch {
		case mode == 0:
			b.Output(netlist.Const0)
		case mode == 1:
			b.Output(netlist.Const1)
		case rng.Intn(3) == 0:
			b.Output(b.Input(rng.Intn(wa + wb)))
		default:
			b.Output([]netlist.Signal{netlist.Const0, netlist.Const1}[rng.Intn(2)])
		}
	}
	return b.Build()
}

// oracleCase generates case seed: an op of every kind at a small width,
// a netlist that is exact, a structural mutant, a library variant or a
// constant-output circuit, and options for the exhaustive sweep or a
// Monte-Carlo run (forced on small ops through ExhaustiveBits, often with
// a sample count that leaves a partial word).
func oracleCase(seed int64) (*netlist.Netlist, Op, Options) {
	rng := rand.New(rand.NewSource(seed))
	var op Op
	switch rng.Intn(3) {
	case 0:
		op = Op{Add, []int{1, 2, 3, 5, 8, 9}[rng.Intn(6)]}
	case 1:
		op = Op{Sub, []int{1, 2, 4, 7, 10}[rng.Intn(5)]}
	default:
		op = Op{Mul, []int{2, 3, 4, 6}[rng.Intn(4)]}
	}
	var nl *netlist.Netlist
	switch rng.Intn(4) {
	case 0:
		nl = exactCircuit(op)
	case 1:
		nl = approxgen.Mutate(exactCircuit(op), 1+rng.Intn(8), rng.Int63())
	case 2:
		var vs []approxgen.Variant
		switch op.Kind {
		case Add:
			vs = approxgen.AdderVariants(op.Width, 40, rng.Int63())
		case Sub:
			vs = approxgen.SubtractorVariants(op.Width, 40, rng.Int63())
		default:
			vs = approxgen.MultiplierVariants(op.Width, 40, rng.Int63())
		}
		nl = vs[rng.Intn(len(vs))].N
	default:
		nl = constCircuit(op, rng)
	}
	opts := Options{Seed: 1 + rng.Int63n(1000), ActivityBatches: 1 + rng.Intn(40)}
	if rng.Intn(2) == 0 {
		opts.ExhaustiveBits = 1 + rng.Intn(2*op.Width)
		opts.Samples = []int{1, 63, 64, 65, 511, 512, 513, 1000, 4096}[rng.Intn(9)]
	}
	return nl, op, opts
}

// TestCharacterizeOracle pins Characterize to the frozen per-lane loop
// over generated add, sub and mul circuits in both sweep modes.
func TestCharacterizeOracle(t *testing.T) {
	n := int64(400)
	if testing.Short() {
		n = 100
	}
	for seed := int64(0); seed < n; seed++ {
		nl, op, opts := oracleCase(seed)
		want, err := oracleCharacterize(nl, op, "f", opts)
		if err != nil {
			t.Fatalf("oracleCase(%d): oracle: %v", seed, err)
		}
		got, err := Characterize(nl, op, "f", opts)
		if err != nil {
			t.Fatalf("oracleCase(%d): %v", seed, err)
		}
		if err := sameCircuit(got, want); err != nil {
			t.Fatalf("repro: go test ./internal/acl -run TestCharacterizeOracle (oracleCase(%d): %s %s, %+v): %v",
				seed, op, nl.Name, opts, err)
		}
	}
}

// TestCharacterizeOracleLibraryMix pins Characterize to the oracle on the
// circuits of the end-to-end benchmark's library mix and on the wider
// Monte-Carlo ops: add8, add9 and sub10 sweeps, mul8, and add16 sampled.
func TestCharacterizeOracleLibraryMix(t *testing.T) {
	type gen struct {
		op Op
		vs []approxgen.Variant
	}
	gens := []gen{
		{Op{Add, 8}, approxgen.AdderVariants(8, 16, 1)},
		{Op{Add, 9}, approxgen.AdderVariants(9, 12, 1)},
		{Op{Sub, 10}, approxgen.SubtractorVariants(10, 8, 1)},
		{Op{Mul, 8}, approxgen.MultiplierVariants(8, 6, 1)},
		{Op{Add, 16}, approxgen.AdderVariants(16, 6, 1)},
	}
	if testing.Short() {
		gens = gens[2:3]
	}
	for _, g := range gens {
		for i, v := range g.vs {
			opts := Options{Samples: 1 << 12}
			want, err := oracleCharacterize(v.N, g.op, v.Family, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Characterize(v.N, g.op, v.Family, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCircuit(got, want); err != nil {
				t.Fatalf("repro: go test ./internal/acl -run TestCharacterizeOracleLibraryMix (%s variant %d, %s): %v", g.op, i, v.N.Name, err)
			}
		}
	}
}

// oracleScoreWMED is ScoreWMED as it stood when the support was scored in
// 64-lane batches: each batch is packed with PackBits, run as word 0 of a
// program block, and unpacked with UnpackBits.  Nothing outside the oracle
// tests may call it.
func oracleScoreWMED(circuits []*Circuit, d *pmf.PMF) []float64 {
	op := circuits[0].Op
	wa, wb := op.InWidths()
	type sup struct {
		a, b uint64
		w    float64
	}
	var support []sup
	d.ForEach(func(a, b uint64, w float64) {
		support = append(support, sup{a, b, w})
	})
	const W = netlist.BlockWords
	wmeds := make([]float64, len(circuits))
	var avals, bvals, ovals [64]uint64
	planes := make([]uint64, wa+wb)
	for ci, c := range circuits {
		prog := netlist.Compile(c.Netlist)
		in := make([]uint64, (wa+wb)*W)
		outs := make([]uint64, prog.NumOutputs())
		var wmed float64
		for base := 0; base < len(support); base += 64 {
			lanes := min(len(support)-base, 64)
			for l := 0; l < lanes; l++ {
				avals[l] = support[base+l].a
				bvals[l] = support[base+l].b
			}
			netlist.PackBits(avals[:lanes], wa, planes[:wa])
			netlist.PackBits(bvals[:lanes], wb, planes[wa:])
			for k, v := range planes {
				in[k*W] = v
			}
			out := prog.EvalBlock(in, nil, nil)
			for k := range outs {
				outs[k] = out[k*W]
			}
			netlist.UnpackBits(outs, lanes, ovals[:])
			for l := 0; l < lanes; l++ {
				s := support[base+l]
				diff := op.Value(ovals[l]) - op.Value(op.Exact(s.a, s.b))
				if diff < 0 {
					diff = -diff
				}
				wmed += s.w * float64(diff)
			}
		}
		wmeds[ci] = wmed
	}
	return wmeds
}

// TestScoreWMEDOracle pins ScoreWMED's WMEDs bit for bit to the frozen
// 64-lane scorer, on dense PMFs (add8, mul8) and sparse ones past 16
// operand bits (sub10), with supports that end mid-batch.
func TestScoreWMEDOracle(t *testing.T) {
	cases := []struct {
		op      Op
		vs      []approxgen.Variant
		support int
	}{
		{Op{Add, 8}, approxgen.AdderVariants(8, 12, 3), 5000},
		{Op{Mul, 8}, approxgen.MultiplierVariants(8, 6, 3), 777},
		{Op{Sub, 10}, approxgen.SubtractorVariants(10, 8, 3), 3001},
		{Op{Add, 8}, approxgen.AdderVariants(8, 4, 5), 37},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(ci)))
		wa, wb := tc.op.InWidths()
		d := pmf.New(wa, wb)
		for i := 0; i < tc.support; i++ {
			d.Add(rng.Uint64()&(1<<uint(wa)-1), rng.Uint64()&(1<<uint(wb)-1), rng.Float64())
		}
		d.Normalize()
		var circuits []*Circuit
		for _, v := range tc.vs {
			circuits = append(circuits, &Circuit{Name: v.N.Name, Op: tc.op, Netlist: netlist.Simplify(v.N)})
		}
		want := oracleScoreWMED(circuits, d)
		ScoreWMED(circuits, d)
		for i, c := range circuits {
			if math.Float64bits(c.WMED) != math.Float64bits(want[i]) {
				t.Fatalf("repro: go test ./internal/acl -run TestScoreWMEDOracle (case %d, %s, circuit %d %s): WMED %v, oracle %v",
					ci, tc.op, i, c.Name, c.WMED, want[i])
			}
		}
	}
}
