package netlist

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"autoax/internal/cell"
)

// Frozen oracles: the map-hashed Builder and the Simplify passes exactly
// as they stood before the open-addressed gate table and pooled scratch.
// The fast paths must reproduce them gate for gate; nothing outside the
// oracle tests may call them.

// oracleBuilder is the historical Builder: structural hashing through a
// Go map keyed by the normalized gate.
type oracleBuilder struct {
	n    *Netlist
	hash map[oracleKey]Signal
}

type oracleKey struct {
	kind    cell.Kind
	a, b, c Signal
}

func newOracleBuilder(name string, numInputs int) *oracleBuilder {
	return &oracleBuilder{
		n:    &Netlist{Name: name, NumInputs: numInputs},
		hash: make(map[oracleKey]Signal),
	}
}

func (b *oracleBuilder) Grow(int)                {}
func (b *oracleBuilder) Not(a Signal) Signal     { return b.emit(cell.Inv, a, 0, 0) }
func (b *oracleBuilder) And(a, c Signal) Signal  { return b.emit(cell.And2, a, c, 0) }
func (b *oracleBuilder) Or(a, c Signal) Signal   { return b.emit(cell.Or2, a, c, 0) }
func (b *oracleBuilder) Nand(a, c Signal) Signal { return b.emit(cell.Nand2, a, c, 0) }
func (b *oracleBuilder) Nor(a, c Signal) Signal  { return b.emit(cell.Nor2, a, c, 0) }
func (b *oracleBuilder) Xor(a, c Signal) Signal  { return b.emit(cell.Xor2, a, c, 0) }
func (b *oracleBuilder) Xnor(a, c Signal) Signal { return b.emit(cell.Xnor2, a, c, 0) }
func (b *oracleBuilder) Mux(sel, lo, hi Signal) Signal {
	return b.emit(cell.Mux2, sel, lo, hi)
}
func (b *oracleBuilder) AndNot(a, c Signal) Signal { return b.emit(cell.AndN2, a, c, 0) }
func (b *oracleBuilder) OrNot(a, c Signal) Signal  { return b.emit(cell.OrN2, a, c, 0) }
func (b *oracleBuilder) Output(s Signal)           { b.n.Outputs = append(b.n.Outputs, s) }
func (b *oracleBuilder) Build() *Netlist           { return b.n }

func (b *oracleBuilder) emit(k cell.Kind, a, bb, c Signal) Signal {
	if s, ok := foldGate(k, a, bb, c, b.n); ok {
		return s
	}
	// Normalize commutative operand order for hashing.
	switch k {
	case cell.And2, cell.Or2, cell.Nand2, cell.Nor2, cell.Xor2, cell.Xnor2:
		if a > bb {
			a, bb = bb, a
		}
	}
	key := oracleKey{k, a, bb, c}
	if s, ok := b.hash[key]; ok {
		return s
	}
	s := Signal(b.n.NumNodes())
	b.n.Gates = append(b.n.Gates, Gate{Kind: k, A: a, B: bb, C: c})
	b.hash[key] = s
	return s
}

func (b *oracleBuilder) Instantiate(sub *Netlist, inputs []Signal) []Signal {
	if len(inputs) != sub.NumInputs {
		panic(fmt.Sprintf("netlist: Instantiate %q got %d inputs, want %d", sub.Name, len(inputs), sub.NumInputs))
	}
	mapped := make([]Signal, sub.NumNodes())
	copy(mapped, inputs)
	resolve := func(s Signal) Signal {
		if s < 0 {
			return s
		}
		return mapped[s]
	}
	for i, g := range sub.Gates {
		var s Signal
		switch cell.Arity(g.Kind) {
		case 1:
			s = b.emit(g.Kind, resolve(g.A), 0, 0)
		case 2:
			s = b.emit(g.Kind, resolve(g.A), resolve(g.B), 0)
		default:
			s = b.emit(g.Kind, resolve(g.A), resolve(g.B), resolve(g.C))
		}
		mapped[sub.NumInputs+i] = s
	}
	outs := make([]Signal, len(sub.Outputs))
	for i, o := range sub.Outputs {
		outs[i] = resolve(o)
	}
	return outs
}

func oracleSimplify(n *Netlist) *Netlist {
	cur := n
	prevArea := oracleArea(cur)
	for iter := 0; iter < 8; iter++ {
		next := oracleEliminateDead(oracleRewriteOnce(cur))
		area := oracleArea(next)
		if area >= prevArea && len(next.Gates) >= len(cur.Gates) {
			if iter == 0 {
				return next // still return the cleaned-up copy
			}
			return cur
		}
		cur, prevArea = next, area
	}
	return cur
}

func oracleRewriteOnce(n *Netlist) *Netlist {
	fanout := make([]int, n.NumNodes())
	count := func(s Signal) {
		if s >= 0 {
			fanout[s]++
		}
	}
	for _, g := range n.Gates {
		count(g.A)
		if cell.Arity(g.Kind) >= 2 {
			count(g.B)
		}
		if cell.Arity(g.Kind) >= 3 {
			count(g.C)
		}
	}
	for _, o := range n.Outputs {
		count(o)
	}

	b := newOracleBuilder(n.Name, n.NumInputs)
	mapped := make([]Signal, n.NumNodes())
	for i := 0; i < n.NumInputs; i++ {
		mapped[i] = Signal(i)
	}
	res := func(s Signal) Signal {
		if s < 0 {
			return s
		}
		return mapped[s]
	}
	// invOperand reports whether old signal s is produced by a single-fanout
	// inverter in the original netlist, returning the inverter's (resolved)
	// operand.  Single fanout guarantees absorbing the inverter shrinks the
	// circuit.
	invOperand := func(s Signal) (Signal, bool) {
		if int(s) >= n.NumInputs {
			g := n.Gates[int(s)-n.NumInputs]
			if g.Kind == cell.Inv && fanout[s] == 1 {
				return res(g.A), true
			}
		}
		return 0, false
	}
	for i, g := range n.Gates {
		a := res(g.A)
		var out Signal
		switch g.Kind {
		case cell.Buf:
			out = a
		case cell.Inv:
			// INV over a single-fanout AND/OR/XOR collapses into the
			// complementary cell, which is cheaper than the pair.
			if int(g.A) >= n.NumInputs && fanout[g.A] == 1 {
				ig := n.Gates[int(g.A)-n.NumInputs]
				switch ig.Kind {
				case cell.And2:
					out = b.Nand(res(ig.A), res(ig.B))
				case cell.Or2:
					out = b.Nor(res(ig.A), res(ig.B))
				case cell.Xor2:
					out = b.Xnor(res(ig.A), res(ig.B))
				case cell.Xnor2:
					out = b.Xor(res(ig.A), res(ig.B))
				case cell.Nand2:
					out = b.And(res(ig.A), res(ig.B))
				case cell.Nor2:
					out = b.Or(res(ig.A), res(ig.B))
				}
			}
			if out == 0 && a == Const0 {
				out = Const1
			}
			if out == 0 && a == Const1 {
				out = Const0
			}
			if out == 0 {
				out = b.Not(a)
			}
		case cell.And2, cell.Or2, cell.Xor2, cell.Xnor2, cell.Nand2, cell.Nor2:
			bb := res(g.B)
			// Absorb single-fanout inverters on either operand.
			if x, ok := invOperand(g.A); ok {
				out = oracleAbsorbedInv(b, g.Kind, bb, x)
			} else if x, ok := invOperand(g.B); ok {
				out = oracleAbsorbedInv(b, g.Kind, a, x)
			} else {
				switch g.Kind {
				case cell.And2:
					out = b.And(a, bb)
				case cell.Or2:
					out = b.Or(a, bb)
				case cell.Xor2:
					if a == Const1 {
						out = b.Not(bb)
					} else if bb == Const1 {
						out = b.Not(a)
					} else {
						out = b.Xor(a, bb)
					}
				case cell.Xnor2:
					if a == Const0 {
						out = b.Not(bb)
					} else if bb == Const0 {
						out = b.Not(a)
					} else if a == Const1 {
						out = bb
					} else if bb == Const1 {
						out = a
					} else {
						out = b.Xnor(a, bb)
					}
				case cell.Nand2:
					if a == Const1 {
						out = b.Not(bb)
					} else if bb == Const1 {
						out = b.Not(a)
					} else if a == bb {
						out = b.Not(a)
					} else {
						out = b.Nand(a, bb)
					}
				case cell.Nor2:
					if a == Const0 {
						out = b.Not(bb)
					} else if bb == Const0 {
						out = b.Not(a)
					} else if a == bb {
						out = b.Not(a)
					} else {
						out = b.Nor(a, bb)
					}
				}
			}
		case cell.Mux2:
			lo, hi := res(g.B), res(g.C)
			switch {
			case lo == Const0 && hi == Const1:
				out = a
			case lo == Const1 && hi == Const0:
				out = b.Not(a)
			case lo == Const0:
				out = b.And(a, hi)
			case hi == Const1:
				out = b.Or(a, lo)
			case hi == Const0:
				out = b.AndNot(lo, a)
			case lo == Const1:
				out = b.OrNot(hi, a)
			default:
				out = b.Mux(a, lo, hi)
			}
		case cell.AndN2:
			bb := res(g.B)
			if a == Const1 {
				out = b.Not(bb)
			} else {
				out = b.AndNot(a, bb)
			}
		case cell.OrN2:
			bb := res(g.B)
			if a == Const0 {
				out = b.Not(bb)
			} else {
				out = b.OrNot(a, bb)
			}
		}
		mapped[n.NumInputs+i] = out
	}
	for _, o := range n.Outputs {
		b.Output(res(o))
	}
	return b.Build()
}

func oracleAbsorbedInv(b *oracleBuilder, kind cell.Kind, a, x Signal) Signal {
	switch kind {
	case cell.And2:
		return b.AndNot(a, x)
	case cell.Or2:
		return b.OrNot(a, x)
	case cell.Xor2:
		return b.Xnor(a, x)
	case cell.Xnor2:
		return b.Xor(a, x)
	case cell.Nand2:
		// ~(a & ~x) = ~a | x = OrNot(x, a)
		return b.OrNot(x, a)
	case cell.Nor2:
		// ~(a | ~x) = ~a & x = AndNot(x, a)
		return b.AndNot(x, a)
	}
	panic("netlist: absorbedInv on non-absorbing kind")
}

func oracleEliminateDead(n *Netlist) *Netlist {
	live := make([]bool, n.NumNodes())
	var mark func(Signal)
	stack := make([]Signal, 0, len(n.Gates))
	mark = func(s Signal) {
		if s < 0 || live[s] {
			return
		}
		live[s] = true
		if int(s) >= n.NumInputs {
			stack = append(stack, s)
		}
	}
	for _, o := range n.Outputs {
		mark(o)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := n.Gates[int(s)-n.NumInputs]
		mark(g.A)
		if cell.Arity(g.Kind) >= 2 {
			mark(g.B)
		}
		if cell.Arity(g.Kind) >= 3 {
			mark(g.C)
		}
	}
	remap := make([]Signal, n.NumNodes())
	out := &Netlist{Name: n.Name, NumInputs: n.NumInputs}
	for i := 0; i < n.NumInputs; i++ {
		remap[i] = Signal(i)
	}
	res := func(s Signal) Signal {
		if s < 0 {
			return s
		}
		return remap[s]
	}
	for i, g := range n.Gates {
		id := Signal(n.NumInputs + i)
		if !live[id] {
			continue
		}
		ng := Gate{Kind: g.Kind, A: res(g.A)}
		if cell.Arity(g.Kind) >= 2 {
			ng.B = res(g.B)
		}
		if cell.Arity(g.Kind) >= 3 {
			ng.C = res(g.C)
		}
		remap[id] = Signal(out.NumInputs + len(out.Gates))
		out.Gates = append(out.Gates, ng)
	}
	out.Outputs = make([]Signal, len(n.Outputs))
	for i, o := range n.Outputs {
		out.Outputs[i] = res(o)
	}
	return out
}

// oracleArea is the area sum of the historical Analyze, in gate order.
func oracleArea(n *Netlist) float64 {
	var a float64
	for _, g := range n.Gates {
		a += cell.Lookup(g.Kind).Area
	}
	return a
}

// gateEmitter is the surface the generated build cases drive on both the
// Builder and its oracle.
type gateEmitter interface {
	emit(k cell.Kind, a, b, c Signal) Signal
	Grow(int)
	Output(Signal)
	Build() *Netlist
}

// genBuild drives b through generated case seed: every cell kind,
// constant rails, inverter chains, repeated (and operand-swapped)
// subexpressions and, for a third of the seeds, thousands of gates from
// a small or absent size hint, so the hash table grows several times.
func genBuild(seed int64, newBuilder func(name string, numInputs int) gateEmitter) *Netlist {
	rng := rand.New(rand.NewSource(seed))
	inputs := 1 + rng.Intn(12)
	b := newBuilder("gen", inputs)
	steps := 10 + rng.Intn(60)
	switch seed % 3 {
	case 1:
		steps = 200 + rng.Intn(800)
	case 2:
		steps = 3000 + rng.Intn(6000)
	}
	if rng.Intn(2) == 0 {
		b.Grow(rng.Intn(steps + 1))
	}
	sigs := []Signal{Const0, Const1}
	for i := 0; i < inputs; i++ {
		sigs = append(sigs, Signal(i))
	}
	type op struct {
		k       cell.Kind
		a, b, c Signal
	}
	var history []op
	pick := func() Signal {
		switch r := rng.Intn(10); {
		case r == 0:
			return Const0 - Signal(rng.Intn(2))
		case r < 4 && len(sigs) > 8:
			return sigs[len(sigs)-1-rng.Intn(8)]
		default:
			return sigs[rng.Intn(len(sigs))]
		}
	}
	for s := 0; s < steps; s++ {
		var o op
		switch r := rng.Intn(20); {
		case r == 0:
			// Once toggled folding; the draw is kept so the rest of
			// each seed's stream is unchanged.
			rng.Intn(3)
			continue
		case r == 1:
			b.Output(pick())
			continue
		case r < 5 && len(history) > 0:
			o = history[rng.Intn(len(history))]
			if cell.Arity(o.k) == 2 && rng.Intn(2) == 0 {
				o.a, o.b = o.b, o.a
			}
		case r < 7:
			x := pick()
			for n := 1 + rng.Intn(4); n > 0; n-- {
				x = b.emit(cell.Inv, x, 0, 0)
				sigs = append(sigs, x)
			}
			continue
		default:
			o.k = cell.Kind(rng.Intn(cell.NumKinds))
			o.a = pick()
			if cell.Arity(o.k) >= 2 {
				o.b = pick()
			}
			if cell.Arity(o.k) >= 3 {
				o.c = pick()
			}
		}
		history = append(history, o)
		sigs = append(sigs, b.emit(o.k, o.a, o.b, o.c))
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		b.Output(pick())
	}
	return b.Build()
}

func newBuilder(name string, numInputs int) gateEmitter { return NewBuilder(name, numInputs) }
func newOracle(name string, numInputs int) gateEmitter  { return newOracleBuilder(name, numInputs) }

// sameNetlist reports the first difference between got and the oracle's
// want, gate for gate and output for output.
func sameNetlist(got, want *Netlist) error {
	if got.NumInputs != want.NumInputs || len(got.Gates) != len(want.Gates) || len(got.Outputs) != len(want.Outputs) {
		return fmt.Errorf("shape: %d inputs, %d gates, %d outputs; oracle %d, %d, %d",
			got.NumInputs, len(got.Gates), len(got.Outputs), want.NumInputs, len(want.Gates), len(want.Outputs))
	}
	for i := range got.Gates {
		if got.Gates[i] != want.Gates[i] {
			return fmt.Errorf("gate %d = %+v, oracle %+v", i, got.Gates[i], want.Gates[i])
		}
	}
	for i := range got.Outputs {
		if got.Outputs[i] != want.Outputs[i] {
			return fmt.Errorf("output %d = %d, oracle %d", i, got.Outputs[i], want.Outputs[i])
		}
	}
	return nil
}

// TestBuilderOracle drives the Builder and the map-hashed oracle through
// the same generated emit sequences.
func TestBuilderOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		got := genBuild(seed, newBuilder)
		want := genBuild(seed, newOracle)
		if err := sameNetlist(got, want); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestBuilderOracle (genBuild(%d)): %v", seed, err)
		}
	}
}

// TestSimplifyOracle runs CheckOracles on random netlists and on generated
// builds, one after another so pooled scratch is reused across sizes.
func TestSimplifyOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		var n *Netlist
		if seed%2 == 0 {
			rng := rand.New(rand.NewSource(seed))
			n = randomNetlist(rng, 1+rng.Intn(10), 1+rng.Intn(400))
		} else {
			n = genBuild(seed, newBuilder)
		}
		if err := CheckOracles(n); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestSimplifyOracle (seed %d): %v", seed, err)
		}
	}
}

// TestSimplifyOracleConcurrent runs the oracle checks from several
// goroutines at once, which share the pooled gate tables and scratch.
func TestSimplifyOracleConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := w; seed < 120; seed += 4 {
				if err := CheckOracles(genBuild(seed, newBuilder)); err != nil {
					t.Errorf("repro: go test ./internal/netlist -run TestSimplifyOracleConcurrent (genBuild(%d)): %v", seed, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// CheckOracles compares one rewrite pass, dead-cone elimination, the
// whole Simplify and the re-emission of n's gates through a folding
// Builder with their frozen oracles.  It is exported for the library and
// configuration cases of oracle_ext_test.go, which import packages that
// import netlist.
func CheckOracles(n *Netlist) error {
	in := make([]Signal, n.NumInputs)
	for i := range in {
		in[i] = Signal(i)
	}
	got, want := NewBuilder(n.Name, n.NumInputs), newOracleBuilder(n.Name, n.NumInputs)
	got.OutputBus(got.Instantiate(n, in))
	for _, s := range want.Instantiate(n, in) {
		want.Output(s)
	}
	if err := sameNetlist(got.Build(), want.Build()); err != nil {
		return fmt.Errorf("Instantiate: %w", err)
	}
	if err := sameNetlist(rewritePass(n), oracleRewriteOnce(n)); err != nil {
		return fmt.Errorf("rewriteOnce: %w", err)
	}
	if err := sameEncoding(deadPass(n), oracleEliminateDead(n)); err != nil {
		return fmt.Errorf("eliminateDead: %w", err)
	}
	if err := sameEncoding(Simplify(n), oracleSimplify(n)); err != nil {
		return fmt.Errorf("Simplify: %w", err)
	}
	return nil
}

// sameEncoding is sameNetlist plus the nil-ness of the gate list, which
// decides whether a gate-free netlist serializes as null or [].
func sameEncoding(got, want *Netlist) error {
	if err := sameNetlist(got, want); err != nil {
		return err
	}
	if (got.Gates == nil) != (want.Gates == nil) {
		return fmt.Errorf("nil gate list = %v, oracle %v", got.Gates == nil, want.Gates == nil)
	}
	return nil
}

// rewritePass and deadPass run one pass on pooled scratch, as Simplify
// does, and copy the result out of it.
func rewritePass(n *Netlist) *Netlist {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.rewriteOnce(n).Clone()
}

func deadPass(n *Netlist) *Netlist {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.eliminateDead(n)
}
