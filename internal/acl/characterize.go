package acl

import (
	"fmt"
	"math/bits"
	"math/rand"

	"autoax/internal/netlist"
	"autoax/internal/obs"
)

// Options controls circuit characterization.
type Options struct {
	// ExhaustiveBits: operand pairs with at most this many total bits are
	// characterized exhaustively; wider ones use Samples Monte-Carlo draws.
	ExhaustiveBits int
	// Samples is the Monte-Carlo sample count for wide operations.
	Samples int
	// Seed drives Monte-Carlo sampling (deterministic per circuit).
	Seed int64
	// ActivityBatches bounds how many 64-lane batches feed the switching-
	// activity estimate for power/energy.
	ActivityBatches int
}

// DefaultOptions returns the characterization settings used by the
// experiments: exhaustive to 20 bits (covers add8/add9/sub10/mul8),
// 65536 samples beyond, 32 activity batches.
func DefaultOptions() Options {
	return Options{ExhaustiveBits: 20, Samples: 1 << 16, Seed: 1, ActivityBatches: 32}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.ExhaustiveBits == 0 {
		o.ExhaustiveBits = d.ExhaustiveBits
	}
	if o.Samples == 0 {
		o.Samples = d.Samples
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.ActivityBatches == 0 {
		o.ActivityBatches = d.ActivityBatches
	}
	return o
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// Characterize synthesizes (simplifies) the netlist, verifies its
// interface matches op, and measures error and hardware metrics.  The
// returned Circuit stores the simplified netlist.
func Characterize(nl *netlist.Netlist, op Op, family string, opts Options) (*Circuit, error) {
	span := obs.Default().StartSpanIn(characterizeSpans)
	defer span.Finish()
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

	// The sweep runs on the compiled program, W packed words (W×64
	// operand pairs) per instruction-decode pass.  Lane values, the
	// output signature sequence and the activity counts are bit-identical
	// to the historical one-word-at-a-time evaluation: the w-major
	// signature fold and the per-word lane masks of the counted passes
	// are both invariant under the block width.
	const W = netlist.BlockWords
	prog := netlist.Compile(simp)
	outW := len(simp.Outputs)
	planes := make([]uint64, (wa+wb)*W)
	scratch := make([]uint64, prog.NumSlots()*W)
	outBuf := make([]uint64, outW*W)
	var avals, bvals [W * 64]uint64
	var ovals [64]uint64
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
	characterized.Inc()
	characterizePairs.Add(int64(total))

	var (
		sumAbs, sumSq, sumRel float64
		wce                   int64
		errCount              uint64
		sig                   uint64 = fnvOffset
	)
	ones := make([]uint64, len(simp.Gates))
	activityBlocks, activityLanes := 0, 0

	for base := uint64(0); base < total; base += W * 64 {
		lanes := W * 64
		if total-base < uint64(lanes) {
			lanes = int(total - base)
		}
		if exhaustive {
			// The operand pair is one counter (a‖b), so its input planes
			// have a closed form — no 64×64 transpose on the input side.
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
		// Visit each word's lanes in ascending order.  For Add and Sub
		// only the lanes whose output differs from the exact result are
		// visited, and a word without one is not unpacked at all; the
		// error sums see the same additions in the same order, since a
		// lane with d == 0 adds nothing.  Mul visits every lane: its
		// exact planes would cost more to build than the skip saves.
		for w := 0; w*64 < lanes; w++ {
			visit := ^uint64(0)
			if rem := lanes - w*64; rem < 64 {
				visit = uint64(1)<<uint(rem) - 1
			}
			if op.Kind != Mul {
				if visit &= mismatch(op, planes, out, W, w); visit == 0 {
					continue
				}
			}
			netlist.UnpackBlockWord(out, outW, W, w, 64-bits.LeadingZeros64(visit), ovals[:])
			for ; visit != 0; visit &= visit - 1 {
				l := bits.TrailingZeros64(visit)
				var a, b uint64
				if exhaustive {
					idx := base + uint64(w*64+l)
					a, b = idx>>uint(wb), idx&maskB
				} else {
					a, b = avals[w*64+l], bvals[w*64+l]
				}
				exact := op.Value(op.Exact(a, b))
				got := op.Value(ovals[l])
				// Branch-free: |got − exact|, and |exact| with 0 read as 1.
				if d := max(got-exact, exact-got); d != 0 {
					errCount++
					wce = max(wce, d)
					fd := float64(d)
					sumAbs += fd
					sumSq += fd * fd
					sumRel += fd / float64(max(exact, -exact, 1))
				}
			}
		}
		// Activity counts the gate values this pass left in scratch, a
		// whole block at a time.  ActivityBatches counts 64-lane words,
		// and every block but the sweep's last is full, so the block that
		// reaches the cap keeps the lanes of the words still wanted: a
		// cap that is not a multiple of W counts the same words.
		if want := opts.ActivityBatches - activityBlocks*W; want > 0 {
			counted := min(lanes, min(want, W)*64)
			prog.CountOnes(scratch, counted, ones)
			activityBlocks++
			activityLanes += counted
		}
	}
	ft := float64(total)
	c.MAE = sumAbs / ft
	c.MSE = sumSq / ft
	c.MRED = sumRel / ft
	c.ErrRate = float64(errCount) / ft
	c.WCE = wce
	c.Sig = sig

	cost := simp.ActivityCost(ones, activityLanes)
	c.Area = cost.Area
	c.Delay = cost.Delay
	c.Power = cost.Power
	c.Energy = cost.Energy
	c.Gates = cost.GateCount
	return c, nil
}

// mismatch returns, for word w of the block planes (planes[k*words+w]),
// the lanes where the Add or Sub circuit's output planes differ from the
// exact result.  The exact planes come from a bit-sliced ripple adder
// over the input planes; Sub adds the inverted subtrahend with carry-in
// 1, and the zero-extended top operand bits make the top result bit the
// final carry (Add) or its complement (Sub).  Padded lanes past the
// block's count are not masked out here.
func mismatch(op Op, planes, out []uint64, words, w int) uint64 {
	wa, _ := op.InWidths()
	var inv uint64
	if op.Kind == Sub {
		inv = ^uint64(0)
	}
	carry := inv
	var diff uint64
	for j := 0; j < wa; j++ {
		x := planes[j*words+w]
		y := planes[(wa+j)*words+w] ^ inv
		diff |= out[j*words+w] ^ x ^ y ^ carry
		carry = x&y | carry&(x^y)
	}
	return diff | (out[wa*words+w] ^ carry ^ inv)
}
