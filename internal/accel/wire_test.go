package accel_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
)

// paperApps returns fresh instances of the three case studies.
func paperApps() map[string]*accel.ImageApp {
	return map[string]*accel.ImageApp{
		"sobel":     apps.Sobel(),
		"fixedgf":   apps.FixedGF(),
		"genericgf": apps.GenericGF(apps.GenericGFKernels(3)),
	}
}

// randomInputs fills a vector with random values for each graph input.
func randomInputs(g *accel.Graph, rng *rand.Rand) []uint64 {
	in := make([]uint64, len(g.Inputs))
	for i, id := range g.Inputs {
		in[i] = rng.Uint64() & (uint64(1)<<uint(g.Nodes[id].Width) - 1)
	}
	return in
}

// sameEval checks the two graphs produce bit-identical exact outputs over
// n random input vectors.
func sameEval(t *testing.T, name string, a, b *accel.Graph, n int, seed int64) {
	t.Helper()
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("%s: interface mismatch after round-trip", name)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		in := randomInputs(a, rng)
		ra := a.EvalExact(in)
		rb := b.EvalExact(in)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: output %d differs on input %v: %d vs %d", name, i, in, ra[i], rb[i])
			}
		}
	}
}

// randomGraph builds a deterministic pseudo-random valid accelerator
// graph: a handful of 8-bit window inputs feeding a random mix of
// arithmetic and wiring nodes, clamped to one 8-bit output.
func randomGraph(seed int64) *accel.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := accel.NewGraph("rnd")
	ids := make([]int, 0, 24)
	widths := make(map[int]int)
	nIn := 3 + rng.Intn(3)
	for i := 0; i < nIn; i++ {
		id := g.Input(strings.Repeat("i", i+1), 8)
		ids = append(ids, id)
		widths[id] = 8
	}
	if rng.Intn(2) == 0 {
		id := g.Constant("c", 6, uint64(rng.Intn(64)))
		ids = append(ids, id)
		widths[id] = 6
	}
	pick := func() int { return ids[rng.Intn(len(ids))] }
	for i := 0; i < 8+rng.Intn(8); i++ {
		var id int
		switch rng.Intn(7) {
		case 0, 1, 2: // binary op
			a, b := pick(), pick()
			w := widths[a]
			if widths[b] > w {
				w = widths[b]
			}
			w += rng.Intn(2)
			var kinds = []acl.Kind{acl.Add, acl.Sub, acl.Mul}
			k := kinds[rng.Intn(len(kinds))]
			if k == acl.Mul && w > 10 {
				k = acl.Add // keep multiplier widths simulation-cheap
			}
			op := acl.Op{Kind: k, Width: w}
			id = g.Op("op", op, a, b)
			widths[id] = op.OutWidth()
		case 3:
			a := pick()
			s := 1 + rng.Intn(2)
			if widths[a]+s > 20 {
				continue
			}
			id = g.ShiftL("sl", a, s)
			widths[id] = widths[a] + s
		case 4:
			a := pick()
			id = g.ShiftR("sr", a, 1+rng.Intn(3))
			widths[id] = g.Nodes[id].Width
		case 5:
			a := pick()
			w := 1 + rng.Intn(widths[a])
			id = g.Trunc("tr", a, w)
			widths[id] = w
		default:
			a := pick()
			id = g.Abs("ab", a)
			widths[id] = widths[a]
		}
		ids = append(ids, id)
	}
	g.Output(g.Clamp("out", ids[len(ids)-1], 8))
	return g
}

// TestWireRoundTripPaperApps checks Serialize→Parse→EvalExact is
// bit-identical to the original for the three case studies, and that the
// canonical hash survives the round trip.
func TestWireRoundTripPaperApps(t *testing.T) {
	for name, app := range paperApps() {
		b, err := app.MarshalWire()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := accel.ParseAppJSON(b)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		sameEval(t, name, app.Graph, back.Graph, 200, 42)
		if len(back.Taps) != len(app.Taps) || len(back.Sims) != len(app.Sims) {
			t.Fatalf("%s: taps/sims lost in round trip", name)
		}
		if app.CanonicalHash() != back.CanonicalHash() {
			t.Errorf("%s: canonical hash changed across the wire", name)
		}
		if app.Name != back.Name {
			t.Errorf("%s: name %q became %q", name, app.Name, back.Name)
		}
	}
}

// TestWireRoundTripRandomGraphs fuzzes the round trip over randomized
// custom graphs.
func TestWireRoundTripRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		g := randomGraph(seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid graph: %v", seed, err)
		}
		b, err := g.MarshalWire()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := accel.ParseGraphJSON(b)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, b)
		}
		sameEval(t, "random", g, back, 100, seed*7)
		if g.CanonicalHash() != back.CanonicalHash() {
			t.Errorf("seed %d: canonical hash changed across the wire", seed)
		}
	}
}

// TestCanonicalHashNameInvariance checks the hash ignores names but not
// structure.
func TestCanonicalHashNameInvariance(t *testing.T) {
	build := func(rename bool, width int, taps bool, sims bool) *accel.ImageApp {
		label := func(s string) string {
			if rename {
				return s + "_renamed"
			}
			return s
		}
		g := accel.NewGraph(label("g"))
		a := g.Input(label("a"), 8)
		b := g.Input(label("b"), 8)
		s := g.Add(label("s"), width, a, b)
		g.Output(g.Clamp(label("o"), s, 8))
		app := &accel.ImageApp{
			Name:  label("app"),
			Graph: g,
			Taps:  []accel.WindowTap{{DX: 0, DY: 0}, {DX: 1, DY: 0}},
			Sims:  [][]uint64{{}},
		}
		if !taps {
			app.Taps[1] = accel.WindowTap{DX: -1, DY: 0}
		}
		if !sims {
			app.Sims = [][]uint64{{}, {}}
		}
		return app
	}

	base := build(false, 8, true, true)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := build(true, 8, true, true).CanonicalHash(); got != base.CanonicalHash() {
		t.Errorf("renaming every node changed the canonical hash")
	}
	if got := build(true, 8, true, true).Graph.CanonicalHash(); got != base.Graph.CanonicalHash() {
		t.Errorf("renaming changed the graph-level canonical hash")
	}
	if got := build(false, 9, true, true).CanonicalHash(); got == base.CanonicalHash() {
		t.Errorf("changing an op width did not change the hash")
	}
	if got := build(false, 8, false, true).CanonicalHash(); got == base.CanonicalHash() {
		t.Errorf("changing a window tap did not change the hash")
	}
	if got := build(false, 8, true, false).CanonicalHash(); got == base.CanonicalHash() {
		t.Errorf("changing the simulation set did not change the hash")
	}
}

// TestValidateInputRegistration covers the misbinding Validate turns into
// an error: a NodeInput missing from (or misordered in) Inputs.
func TestValidateInputRegistration(t *testing.T) {
	mk := func() *accel.Graph {
		g := accel.NewGraph("g")
		a := g.Input("a", 8)
		b := g.Input("b", 8)
		g.Output(g.Add("s", 8, a, b))
		return g
	}

	g := mk()
	if err := g.Validate(); err != nil {
		t.Fatalf("well-formed graph rejected: %v", err)
	}

	missing := mk()
	missing.Inputs = missing.Inputs[:1] // drop b's registration
	if err := missing.Validate(); err == nil {
		t.Errorf("graph with unregistered input node passed validation")
	}

	reordered := mk()
	reordered.Inputs[0], reordered.Inputs[1] = reordered.Inputs[1], reordered.Inputs[0]
	if err := reordered.Validate(); err == nil {
		t.Errorf("graph with misordered input registration passed validation")
	}

	dupOut := mk()
	dupOut.Output(dupOut.Outputs[0])
	if err := dupOut.Validate(); err == nil {
		t.Errorf("graph with duplicate output registration passed validation")
	}
}

// TestValidateWidthConsistency checks the declared widths of op and wiring
// nodes are cross-checked against what evaluation actually produces.
func TestValidateWidthConsistency(t *testing.T) {
	breakages := []struct {
		name  string
		wreck func(g *accel.Graph)
	}{
		{"op width", func(g *accel.Graph) { g.Nodes[2].Width++ }},
		{"shl width", func(g *accel.Graph) { g.Nodes[3].Width-- }},
		{"abs width", func(g *accel.Graph) { g.Nodes[4].Width++ }},
		{"const range", func(g *accel.Graph) { g.Nodes[1].Const = 1 << 10 }},
		{"negative shift", func(g *accel.Graph) { g.Nodes[3].Shift = -1 }},
	}
	for _, bk := range breakages {
		g := accel.NewGraph("g")
		a := g.Input("a", 8)            // node 0
		c := g.Constant("c", 4, 9)      // node 1
		s := g.Add("s", 8, a, c)        // node 2
		sl := g.ShiftL("sl", s, 1)      // node 3
		ab := g.Abs("ab", sl)           // node 4
		g.Output(g.Clamp("out", ab, 8)) // node 5
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: baseline graph invalid: %v", bk.name, err)
		}
		bk.wreck(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: corrupted graph passed validation", bk.name)
		}
	}
}

// TestParseStrictness checks the wire decoder rejects malformed payloads.
func TestParseStrictness(t *testing.T) {
	good, err := apps.Sobel().MarshalWire()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func(m map[string]any)
		rawJSON string
	}{
		{name: "unknown field", mutate: func(m map[string]any) { m["bogus"] = 1 }},
		{name: "bad version", mutate: func(m map[string]any) { m["version"] = 99 }},
		{name: "unknown kind", mutate: func(m map[string]any) {
			g := m["graph"].(map[string]any)
			n := g["nodes"].([]any)[0].(map[string]any)
			n["kind"] = "xor"
		}},
		{name: "op field on input", mutate: func(m map[string]any) {
			g := m["graph"].(map[string]any)
			n := g["nodes"].([]any)[0].(map[string]any)
			n["op"] = "add8"
		}},
		{name: "output out of range", mutate: func(m map[string]any) {
			g := m["graph"].(map[string]any)
			g["outputs"] = []any{999}
		}},
		{name: "trailing data", rawJSON: string(good) + "{}"},
		{name: "malformed trailing data", rawJSON: string(good) + "}}}garbage"},
		{name: "not json", rawJSON: "{"},
	}
	for _, tc := range cases {
		payload := tc.rawJSON
		if payload == "" {
			var m map[string]any
			if err := json.Unmarshal(good, &m); err != nil {
				t.Fatal(err)
			}
			tc.mutate(m)
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			payload = string(b)
		}
		if _, err := accel.ParseAppJSON([]byte(payload)); err == nil {
			t.Errorf("%s: malformed payload accepted", tc.name)
		}
	}

	// The untouched payload must of course still parse.
	if _, err := accel.ParseAppJSON(good); err != nil {
		t.Errorf("pristine payload rejected: %v", err)
	}
}

// fuzzMaxNodes bounds the graphs the wire fuzz targets flatten: a short
// payload can declare dozens of 32-bit multipliers, and flattening those
// would only measure the synthesizer.
const fuzzMaxNodes = 64

// fuzzCharacterize keeps the exact circuits' characterization to a few
// Monte-Carlo draws; the fuzz targets check flattening, not error metrics.
var fuzzCharacterize = acl.Options{ExhaustiveBits: 1, Samples: 64, ActivityBatches: 1}

// checkParsedGraph is what every graph a wire parser accepts must
// satisfy: it validates, and (within fuzzMaxNodes) flattens under its
// exact configuration without a panic.
func checkParsedGraph(t *testing.T, g *accel.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("parsed graph does not validate: %v", err)
	}
	if len(g.Nodes) > fuzzMaxNodes {
		return
	}
	cfg, err := accel.ExactConfiguration(g, fuzzCharacterize)
	if err != nil {
		t.Fatalf("exact configuration of a parsed graph: %v", err)
	}
	if _, err := accel.Flatten(g, cfg); err != nil {
		t.Fatalf("flattening a parsed graph: %v", err)
	}
}

// FuzzParseGraphJSON: every graph ParseGraphJSON accepts validates,
// re-marshals and re-parses to an equal canonical hash, and flattens.
func FuzzParseGraphJSON(f *testing.F) {
	for seed := int64(1); seed <= 25; seed++ {
		b, err := randomGraph(seed).MarshalWire()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, app := range paperApps() {
		b, err := app.Graph.MarshalWire()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		g, err := accel.ParseGraphJSON(buf)
		if err != nil {
			return
		}
		b, err := g.MarshalWire()
		if err != nil {
			t.Fatalf("parsed graph does not marshal: %v", err)
		}
		back, err := accel.ParseGraphJSON(b)
		if err != nil {
			t.Fatalf("re-marshalled graph does not parse: %v\n%s", err, b)
		}
		if back.CanonicalHash() != g.CanonicalHash() {
			t.Fatalf("canonical hash changed across a re-marshal:\n%s", b)
		}
		checkParsedGraph(t, g)
	})
}

// FuzzParseAppJSON: every app ParseAppJSON accepts validates,
// re-marshals and re-parses to an equal canonical hash, and its graph
// flattens.
func FuzzParseAppJSON(f *testing.F) {
	for _, app := range paperApps() {
		b, err := app.MarshalWire()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for seed := int64(1); seed <= 5; seed++ {
		g := randomGraph(seed)
		taps := make([]accel.WindowTap, len(g.Inputs))
		for i := range taps {
			taps[i] = accel.WindowTap{DX: i%3 - 1, DY: i/3%3 - 1}
		}
		b, err := (&accel.ImageApp{Name: "rnd", Graph: g, Taps: taps, Sims: [][]uint64{{}}}).MarshalWire()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		app, err := accel.ParseAppJSON(buf)
		if err != nil {
			return
		}
		if err := app.Validate(); err != nil {
			t.Fatalf("parsed app does not validate: %v", err)
		}
		b, err := app.MarshalWire()
		if err != nil {
			t.Fatalf("parsed app does not marshal: %v", err)
		}
		back, err := accel.ParseAppJSON(b)
		if err != nil {
			t.Fatalf("re-marshalled app does not parse: %v\n%s", err, b)
		}
		if back.CanonicalHash() != app.CanonicalHash() {
			t.Fatalf("canonical hash changed across a re-marshal:\n%s", b)
		}
		checkParsedGraph(t, app.Graph)
	})
}
