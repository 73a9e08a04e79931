package acl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"autoax/internal/approxgen"
	"autoax/internal/obs"
	"autoax/internal/par"
)

// Library groups characterized circuits per operation instance (e.g. all
// 8-bit adders).  It is the reproduction's counterpart of the paper's
// merged EvoApprox + QuAd + BAM library (Table 2).
//
// A library handed out by a shared tier (the HTTP server keeps one decoded
// value per stored library for all of its jobs) is read-only: callers
// must not mutate its map, slices, circuits or netlists.  Per-use state
// such as WMED belongs on a copy of the circuit.
type Library struct {
	// Circuits maps Op.String() to the characterized circuits available
	// for that operation instance, sorted by ascending area.
	Circuits map[string][]*Circuit `json:"circuits"`
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{Circuits: make(map[string][]*Circuit)}
}

// For returns the circuits available for op (nil when none).
func (l *Library) For(op Op) []*Circuit { return l.Circuits[op.String()] }

// Ops returns the operation instances present, sorted by name.
func (l *Library) Ops() []Op {
	keys := make([]string, 0, len(l.Circuits))
	for k := range l.Circuits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ops := make([]Op, 0, len(keys))
	for _, k := range keys {
		op, err := ParseOp(k)
		if err == nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// Size returns the total number of circuits across all operations.
func (l *Library) Size() int {
	n := 0
	for _, cs := range l.Circuits {
		n += len(cs)
	}
	return n
}

// Add inserts characterized circuits, skipping behavioural duplicates
// (same signature as an existing circuit for the same op).  It returns the
// number of circuits actually added.
func (l *Library) Add(cs ...*Circuit) int {
	added := 0
	for _, c := range cs {
		key := c.Op.String()
		dup := false
		for _, e := range l.Circuits[key] {
			if e.Sig == c.Sig && e.Area == c.Area {
				dup = true
				break
			}
		}
		if !dup {
			l.Circuits[key] = append(l.Circuits[key], c)
			added++
		}
	}
	return added
}

// SortByArea orders every operation's circuits by ascending area (then
// name, for determinism).
func (l *Library) SortByArea() {
	for _, cs := range l.Circuits {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Area != cs[j].Area {
				return cs[i].Area < cs[j].Area
			}
			return cs[i].Name < cs[j].Name
		})
	}
}

// BuildSpec requests count candidate circuits for one operation instance.
// The built library may hold fewer after behavioural deduplication.
type BuildSpec struct {
	Op    Op
	Count int
}

// Build generates, characterizes, deduplicates and collects circuits for
// every spec.  Generation and characterization are deterministic in seed.
// Characterization fans out over runtime.GOMAXPROCS goroutines; the
// library is assembled in generation order, so its content and serialized
// bytes are identical at any parallelism.
func Build(specs []BuildSpec, seed int64, opts Options) (*Library, error) {
	return BuildContext(context.Background(), specs, seed, opts)
}

// BuildContext is Build with cancellation: the context is checked before
// every circuit characterization (the dominant cost), so a cancelled build
// stops within one circuit per worker instead of finishing the library.
//
// Specs are processed one after another, each spec's circuits in parallel
// (see characterizeAll), which bounds peak memory to one spec's variants.
// Deduplication runs in generation order after each spec completes, so it
// sees exactly the sequence a one-at-a-time build would.
func BuildContext(ctx context.Context, specs []BuildSpec, seed int64, opts Options) (*Library, error) {
	span := obs.Default().StartSpanIn(buildSpans)
	defer span.Finish()
	lib := NewLibrary()
	for _, spec := range specs {
		var vs []approxgen.Variant
		switch spec.Op.Kind {
		case Add:
			vs = approxgen.AdderVariants(spec.Op.Width, spec.Count, seed)
		case Sub:
			vs = approxgen.SubtractorVariants(spec.Op.Width, spec.Count, seed)
		case Mul:
			vs = approxgen.MultiplierVariants(spec.Op.Width, spec.Count, seed)
		default:
			return nil, fmt.Errorf("acl: unsupported op kind %v", spec.Op.Kind)
		}
		cs, err := characterizeAll(ctx, len(vs), func(i int) (*Circuit, error) {
			return characterizeVariant(spec.Op, vs[i], opts)
		})
		if err != nil {
			return nil, err
		}
		lib.Add(cs...)
	}
	lib.SortByArea()
	return lib, nil
}

// characterizeVariant characterizes one generated variant of op.
func characterizeVariant(op Op, v approxgen.Variant, opts Options) (*Circuit, error) {
	c, err := Characterize(v.N, op, v.Family, opts)
	if err != nil {
		return nil, fmt.Errorf("acl: characterize %s: %w", v.N.Name, err)
	}
	return c, nil
}

// characterizeAll runs characterize(i) for every i in [0, n) through
// par.Each and returns the circuits in index order.  The first failure
// cancels the siblings.  The error returned is the lowest-index one, the
// one a sequential loop would hit first: par.Each checks for cancellation
// only before claiming, so every index below a failing one was claimed
// earlier and still runs to completion.  A panic becomes that circuit's
// error instead of killing the process.  Cancelled by the caller, it
// returns the bare ctx.Err().
func characterizeAll(ctx context.Context, n int, characterize func(i int) (*Circuit, error)) ([]*Circuit, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]*Circuit, n)
	errs := par.Each(wctx, n, func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("acl: characterize circuit %d: panic: %v", i, r)
			}
			if err != nil {
				cancel()
			}
		}()
		out[i], err = characterize(i)
		return err
	})
	// Indices left unstarted report wctx.Err(): the cancellation a
	// failure derived, or the caller's own.
	stopped := wctx.Err()
	var cancelled error
	for _, err := range errs {
		switch {
		case err == nil:
		case err == stopped:
			cancelled = err
		default:
			return nil, err
		}
	}
	if cancelled != nil {
		return nil, cancelled
	}
	return out, nil
}

// Save writes the library as JSON.
func (l *Library) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l)
}

// SaveFile writes the library to a JSON file.
func (l *Library) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return l.Save(f)
}

// Load reads a library from JSON.  Every circuit must sit under its own
// op's key (a supported kind and width), carry a well-formed netlist, and
// have the op's interface: wa+wb inputs and OutWidth outputs — the shape
// Characterize checks before it builds a circuit.
func Load(r io.Reader) (*Library, error) {
	var l Library
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("acl: load library: %w", err)
	}
	if l.Circuits == nil {
		l.Circuits = make(map[string][]*Circuit)
	}
	for key, cs := range l.Circuits {
		for i, c := range cs {
			if c == nil {
				return nil, fmt.Errorf("acl: circuit %s[%d] is null", key, i)
			}
			if c.Op.String() != key {
				return nil, fmt.Errorf("acl: circuit %s/%s has op %s", key, c.Name, c.Op)
			}
			if _, err := ParseOp(key); err != nil {
				return nil, fmt.Errorf("acl: circuit %s/%s: %w", key, c.Name, err)
			}
			nl := c.Netlist
			if nl == nil {
				return nil, fmt.Errorf("acl: circuit %s/%s has no netlist", key, c.Name)
			}
			if err := nl.Validate(); err != nil {
				return nil, fmt.Errorf("acl: circuit %s/%s: %w", key, c.Name, err)
			}
			if wa, wb := c.Op.InWidths(); nl.NumInputs != wa+wb {
				return nil, fmt.Errorf("acl: circuit %s/%s has %d inputs, op %s needs %d",
					key, c.Name, nl.NumInputs, c.Op, wa+wb)
			}
			if len(nl.Outputs) != c.Op.OutWidth() {
				return nil, fmt.Errorf("acl: circuit %s/%s has %d outputs, op %s needs %d",
					key, c.Name, len(nl.Outputs), c.Op, c.Op.OutWidth())
			}
		}
	}
	return &l, nil
}

// LoadBytes reads a library from serialized JSON.
func LoadBytes(b []byte) (*Library, error) { return Load(bytes.NewReader(b)) }

// LoadFile reads a library from a JSON file.
func LoadFile(path string) (*Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
