package netlist

import (
	"fmt"
	"math/rand"
)

// Equivalent checks functional equivalence of two netlists with identical
// interfaces by comparing their compiled programs.  When the shared input
// count is at most exhaustiveBits the check is exhaustive; otherwise
// `samples` seeded random vectors are tried.  It returns a descriptive
// error on the first mismatch, or nil.
func Equivalent(a, b *Netlist, exhaustiveBits, samples int, seed int64) error {
	if a.NumInputs != b.NumInputs {
		return fmt.Errorf("netlist: input counts differ: %d vs %d", a.NumInputs, b.NumInputs)
	}
	if len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("netlist: output counts differ: %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	const W = BlockWords
	pa, pb := Compile(a), Compile(b)
	in := make([]uint64, a.NumInputs*W)
	sa := make([]uint64, pa.NumSlots()*W)
	sb := make([]uint64, pb.NumSlots()*W)
	oa := make([]uint64, pa.NumOutputs()*W)
	ob := make([]uint64, pb.NumOutputs()*W)
	// check compares the block outputs over the first `lanes` vectors.
	check := func(lanes int) error {
		ra := pa.EvalBlock(in, sa, oa)
		rb := pb.EvalBlock(in, sb, ob)
		for w := 0; w*64 < lanes; w++ {
			mask := ^uint64(0)
			if rem := lanes - w*64; rem < 64 {
				mask = (uint64(1) << uint(rem)) - 1
			}
			for i := 0; i < pa.NumOutputs(); i++ {
				if (ra[i*W+w]^rb[i*W+w])&mask != 0 {
					return fmt.Errorf("netlist: %q and %q differ on output %d", a.Name, b.Name, i)
				}
			}
		}
		return nil
	}
	if a.NumInputs <= exhaustiveBits {
		total := uint64(1) << uint(a.NumInputs)
		vals := make([]uint64, W*64)
		for base := uint64(0); base < total; base += W * 64 {
			lanes := W * 64
			if total-base < uint64(lanes) {
				lanes = int(total - base)
			}
			for l := 0; l < lanes; l++ {
				vals[l] = base + uint64(l)
			}
			PackBitsBlock(vals[:lanes], a.NumInputs, W, in)
			if err := check(lanes); err != nil {
				return fmt.Errorf("%w (input block base %d)", err, base)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < samples; s += W * 64 {
		for k := range in {
			in[k] = rng.Uint64()
		}
		lanes := W * 64
		if samples-s < lanes {
			lanes = samples - s
		}
		if err := check(lanes); err != nil {
			return fmt.Errorf("%w (random batch %d)", err, s/(W*64))
		}
	}
	return nil
}
