package accel

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"autoax/internal/acl"
)

// This file defines the canonical, versioned JSON wire format for
// accelerator graphs and image apps — the representation that makes
// accelerators first-class resources over the axserver API instead of a
// closed set of named case studies.
//
// Design rules:
//
//   - Nodes are listed in topological order and carry everything a node
//     needs; the external-input binding order is implied by node order
//     (Graph.Validate requires Inputs to equal the NodeInput ids in node
//     order), so the wire format cannot express an inconsistent
//     registration.
//   - Decoding is strict: unknown fields, unknown node kinds, unsupported
//     versions and structurally invalid graphs are all rejected at parse
//     time, before a wire graph can reach the compiled exact model
//     (gprog) or Flatten.
//   - The canonical hash strips every name, so two structurally identical
//     graphs hash identically regardless of how their nodes are labeled,
//     while any structural difference (widths, ops, wiring, taps, sims)
//     changes the hash.  It is the content-address used by the axserver
//     cache.

// WireVersion is the current accelerator wire-format version.  Parsers
// accept exactly this version (a nested graph inside a WireApp may leave
// the field unset and inherit the app's version).
const WireVersion = 1

// Wire node kind strings, one per NodeKind.
const (
	wireKindInput = "input"
	wireKindConst = "const"
	wireKindOp    = "op"
	wireKindShl   = "shl"
	wireKindShr   = "shr"
	wireKindTrunc = "trunc"
	wireKindAbs   = "abs"
	wireKindClamp = "clamp"
)

var wireKindNames = map[NodeKind]string{
	NodeInput:  wireKindInput,
	NodeConst:  wireKindConst,
	NodeOp:     wireKindOp,
	NodeShiftL: wireKindShl,
	NodeShiftR: wireKindShr,
	NodeTrunc:  wireKindTrunc,
	NodeAbs:    wireKindAbs,
	NodeClamp:  wireKindClamp,
}

var wireKindValues = map[string]NodeKind{
	wireKindInput: NodeInput,
	wireKindConst: NodeConst,
	wireKindOp:    NodeOp,
	wireKindShl:   NodeShiftL,
	wireKindShr:   NodeShiftR,
	wireKindTrunc: NodeTrunc,
	wireKindAbs:   NodeAbs,
	wireKindClamp: NodeClamp,
}

// WireNode is one graph node on the wire.  Kind selects which optional
// fields apply: "op" requires op (e.g. "add8") and two args, "const"
// requires value, "shl"/"shr" require shift, and the unary wiring kinds
// ("trunc", "abs", "clamp") take one arg.  Args are indices of earlier
// nodes.
type WireNode struct {
	Kind  string `json:"kind"`
	Name  string `json:"name,omitempty"`
	Width int    `json:"width"`
	Op    string `json:"op,omitempty"`
	Args  []int  `json:"args,omitempty"`
	Shift int    `json:"shift,omitempty"`
	Const uint64 `json:"value,omitempty"`
}

// WireGraph is the serializable form of a Graph.  Inputs are implied by
// the order of "input" nodes; outputs list node indices in external
// binding order.
type WireGraph struct {
	Version int        `json:"version,omitempty"`
	Name    string     `json:"name,omitempty"`
	Nodes   []WireNode `json:"nodes"`
	Outputs []int      `json:"outputs"`
}

// WireApp is the serializable form of an ImageApp: the graph plus its
// window binding and per-simulation input values.  It is the payload of
// the axserver "accelerator" request field.
type WireApp struct {
	Version int         `json:"version,omitempty"`
	Name    string      `json:"name,omitempty"`
	Graph   WireGraph   `json:"graph"`
	Taps    []WindowTap `json:"taps"`
	Sims    [][]uint64  `json:"sims"`
}

// toWire converts a graph to its wire form.  Names are included only when
// withNames is set — the canonical (hashed) encoding strips them so the
// hash is invariant under renaming.
func (g *Graph) toWire(withNames bool) *WireGraph {
	w := &WireGraph{Version: WireVersion, Nodes: make([]WireNode, len(g.Nodes))}
	if withNames {
		w.Name = g.Name
	}
	for i, n := range g.Nodes {
		wn := WireNode{Kind: wireKindNames[n.Kind], Width: n.Width}
		if withNames {
			wn.Name = n.Name
		}
		switch n.Kind {
		case NodeConst:
			wn.Const = n.Const
		case NodeOp:
			wn.Op = n.Op.String()
			wn.Args = append([]int(nil), n.Args...)
		case NodeShiftL, NodeShiftR:
			wn.Shift = n.Shift
			wn.Args = append([]int(nil), n.Args...)
		case NodeTrunc, NodeAbs, NodeClamp:
			wn.Args = append([]int(nil), n.Args...)
		}
		w.Nodes[i] = wn
	}
	w.Outputs = append([]int(nil), g.Outputs...)
	if w.Outputs == nil {
		w.Outputs = []int{}
	}
	return w
}

// Wire returns the graph's wire form, validating it first.
func (g *Graph) Wire() (*WireGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g.toWire(true), nil
}

// MarshalWire serializes the graph into its canonical JSON wire format
// (validated first).
func (g *Graph) MarshalWire() ([]byte, error) {
	w, err := g.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// checkVersion accepts the current version, or 0 for a graph nested in an
// already version-checked envelope.
func checkVersion(v int, nested bool) error {
	if v == WireVersion || (nested && v == 0) {
		return nil
	}
	return fmt.Errorf("accel: unsupported wire version %d (want %d)", v, WireVersion)
}

// graph converts the wire form back into a validated Graph.
func (w *WireGraph) graph(nested bool) (*Graph, error) {
	if err := checkVersion(w.Version, nested); err != nil {
		return nil, err
	}
	g := &Graph{Name: w.Name, Nodes: make([]Node, len(w.Nodes))}
	for i, wn := range w.Nodes {
		kind, ok := wireKindValues[wn.Kind]
		if !ok {
			return nil, fmt.Errorf("accel: node %d: unknown kind %q", i, wn.Kind)
		}
		n := Node{Kind: kind, Name: wn.Name, Width: wn.Width, Args: append([]int(nil), wn.Args...)}
		switch kind {
		case NodeInput:
			g.Inputs = append(g.Inputs, i)
		case NodeConst:
			n.Const = wn.Const
		case NodeOp:
			op, err := acl.ParseOp(wn.Op)
			if err != nil {
				return nil, fmt.Errorf("accel: node %d (%s): %w", i, wn.Name, err)
			}
			n.Op = op
		case NodeShiftL, NodeShiftR:
			n.Shift = wn.Shift
		}
		// Fields that do not apply to the kind must be absent, so a typo'd
		// payload fails loudly instead of being silently ignored.
		if kind != NodeOp && wn.Op != "" {
			return nil, fmt.Errorf("accel: node %d (%s): op field on a %q node", i, wn.Name, wn.Kind)
		}
		if kind != NodeShiftL && kind != NodeShiftR && wn.Shift != 0 {
			return nil, fmt.Errorf("accel: node %d (%s): shift field on a %q node", i, wn.Name, wn.Kind)
		}
		if kind != NodeConst && wn.Const != 0 {
			return nil, fmt.Errorf("accel: node %d (%s): value field on a %q node", i, wn.Name, wn.Kind)
		}
		g.Nodes[i] = n
	}
	g.Outputs = append([]int(nil), w.Outputs...)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Graph converts the wire form back into a validated Graph.
func (w *WireGraph) Graph() (*Graph, error) { return w.graph(false) }

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage: only a clean io.EOF after the payload is accepted.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra any
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return fmt.Errorf("accel: trailing data after wire payload")
	}
	return nil
}

// ParseGraphJSON strictly decodes a wire-format graph: unknown fields,
// unknown kinds, version mismatches and invalid structure are all errors.
func ParseGraphJSON(b []byte) (*Graph, error) {
	var w WireGraph
	if err := strictUnmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("accel: decoding wire graph: %w", err)
	}
	return w.Graph()
}

// toWire converts an app to its wire form (names stripped unless
// withNames).
func (app *ImageApp) toWire(withNames bool) *WireApp {
	w := &WireApp{Version: WireVersion, Graph: *app.Graph.toWire(withNames)}
	if withNames {
		w.Name = app.Name
	}
	w.Graph.Version = 0 // the app envelope carries the version
	w.Taps = append([]WindowTap(nil), app.Taps...)
	if w.Taps == nil {
		w.Taps = []WindowTap{}
	}
	w.Sims = make([][]uint64, len(app.Sims))
	for i, sim := range app.Sims {
		w.Sims[i] = append([]uint64{}, sim...)
	}
	return w
}

// Wire returns the app's wire form, validating it first.
func (app *ImageApp) Wire() (*WireApp, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app.toWire(true), nil
}

// MarshalWire serializes the app (graph, taps, sims) into its canonical
// JSON wire format, validated first.
func (app *ImageApp) MarshalWire() ([]byte, error) {
	w, err := app.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// App converts the wire form back into a validated ImageApp.
func (w *WireApp) App() (*ImageApp, error) {
	if err := checkVersion(w.Version, false); err != nil {
		return nil, err
	}
	g, err := w.Graph.graph(true)
	if err != nil {
		return nil, err
	}
	app := &ImageApp{
		Name:  w.Name,
		Graph: g,
		Taps:  append([]WindowTap(nil), w.Taps...),
		Sims:  make([][]uint64, len(w.Sims)),
	}
	if app.Name == "" {
		app.Name = g.Name
	}
	if app.Name == "" {
		app.Name = "accelerator"
	}
	for i, sim := range w.Sims {
		app.Sims[i] = append([]uint64{}, sim...)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// ParseAppJSON strictly decodes a wire-format app, validating graph,
// window binding and simulations.
func ParseAppJSON(b []byte) (*ImageApp, error) {
	var w WireApp
	if err := strictUnmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("accel: decoding wire app: %w", err)
	}
	return w.App()
}

// CanonicalHash returns the hex SHA-256 of the graph's canonical wire
// encoding with all names stripped: structurally identical graphs hash
// identically regardless of node naming, and any structural change (node
// kinds, widths, wiring, shifts, constants, outputs) changes the hash.
func (g *Graph) CanonicalHash() string {
	b, err := json.Marshal(g.toWire(false))
	if err != nil {
		// Unreachable: the wire structs hold only plain encodable fields.
		panic("accel: canonical graph encoding: " + err.Error())
	}
	return acl.HashBytes(b)
}

// CanonicalHash returns the content-address of the whole app — graph
// structure plus window taps and simulation inputs, names stripped.  Two
// apps with equal hashes are behaviourally identical under evaluation,
// which is the property the axserver cache keys rely on (a named case
// study and its inline-serialized equivalent collide here).
func (app *ImageApp) CanonicalHash() string {
	b, err := json.Marshal(app.toWire(false))
	if err != nil {
		panic("accel: canonical app encoding: " + err.Error())
	}
	return acl.HashBytes(b)
}
