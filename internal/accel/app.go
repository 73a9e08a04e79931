package accel

import (
	"fmt"

	"autoax/internal/imagedata"
	"autoax/internal/netlist"
	"autoax/internal/obs"
	"autoax/internal/pmf"
	"autoax/internal/ssim"
)

// WindowTap binds one 8-bit graph input to a 3×3 sliding-window position
// (dx, dy ∈ {−1, 0, 1} relative to the output pixel).  The JSON field
// names are part of the accelerator wire format (see wire.go).
type WindowTap struct {
	DX int `json:"dx"`
	DY int `json:"dy"`
}

// ImageApp couples an accelerator graph with its image workload: the first
// len(Taps) graph inputs receive window pixels; the remaining inputs
// receive per-simulation values (e.g. filter coefficients) from Sims.
// Every (simulation, image) pair produces one output image compared
// against the exact software model by SSIM — the paper's QoR.
type ImageApp struct {
	Name  string
	Graph *Graph
	Taps  []WindowTap
	// Sims lists the values of the non-window inputs for each simulation
	// run; use a single empty entry for apps without extra inputs.
	Sims [][]uint64
}

// Validate checks the app's input binding against its graph.
func (app *ImageApp) Validate() error {
	if err := app.Graph.Validate(); err != nil {
		return err
	}
	if len(app.Sims) == 0 {
		return fmt.Errorf("accel: app %s has no simulations", app.Name)
	}
	extra := len(app.Graph.Inputs) - len(app.Taps)
	if extra < 0 {
		return fmt.Errorf("accel: app %s has more taps than graph inputs", app.Name)
	}
	for i, sim := range app.Sims {
		if len(sim) != extra {
			return fmt.Errorf("accel: app %s sim %d has %d values, want %d", app.Name, i, len(sim), extra)
		}
	}
	for i, tap := range app.Taps {
		if w := app.Graph.Nodes[app.Graph.Inputs[i]].Width; w != 8 {
			return fmt.Errorf("accel: app %s tap input %d must be 8-bit, got %d", app.Name, i, w)
		}
		if tap.DX < -1 || tap.DX > 1 || tap.DY < -1 || tap.DY > 1 {
			return fmt.Errorf("accel: app %s tap %d (%d,%d) outside the 3×3 window", app.Name, i, tap.DX, tap.DY)
		}
	}
	if len(app.Graph.Outputs) != 1 || app.Graph.Nodes[app.Graph.Outputs[0]].Width != 8 {
		return fmt.Errorf("accel: app %s must have one 8-bit output", app.Name)
	}
	return nil
}

// fillLanes loads the input-node rows of a gprog value buffer with the
// window pixels (and broadcast simulation values) for pixels
// [base, base+lanes) of im in row-major order.
func (app *ImageApp) fillLanes(gp *gprog, vals []uint64, im *imagedata.Image, sim []uint64, base, lanes int) {
	for t, tap := range app.Taps {
		row := vals[app.Graph.Inputs[t]*gprogLanes:][:lanes]
		for l := range row {
			p := base + l
			row[l] = uint64(im.AtClamped(p%im.W+tap.DX, p/im.W+tap.DY))
		}
	}
	for xi, id := range app.Graph.Inputs[len(app.Taps):] {
		v := sim[xi] & gp.mask[id]
		row := vals[id*gprogLanes:][:lanes]
		for l := range row {
			row[l] = v
		}
	}
}

// ExactOutput runs the exact software model over one image for one
// simulation, producing the reference output image.  It evaluates through
// the compiled graph program, 64 pixels per node-decode pass.
func (app *ImageApp) ExactOutput(im *imagedata.Image, sim []uint64) *imagedata.Image {
	gp := compileGraph(app.Graph)
	return app.exactOutput(gp, make([]uint64, gp.numVals()), im, sim)
}

// exactOutput is ExactOutput over a prepared program and value buffer
// (constant rows need not be initialized; they are set here).
func (app *ImageApp) exactOutput(gp *gprog, vals []uint64, im *imagedata.Image, sim []uint64) *imagedata.Image {
	gp.setConsts(vals)
	out := imagedata.New(im.W, im.H)
	outRow := vals[app.Graph.Outputs[0]*gprogLanes:]
	total := im.W * im.H
	for base := 0; base < total; base += gprogLanes {
		lanes := total - base
		if lanes > gprogLanes {
			lanes = gprogLanes
		}
		app.fillLanes(gp, vals, im, sim, base, lanes)
		gp.evalLanes(vals, lanes, nil)
		for l := 0; l < lanes; l++ {
			out.Pix[base+l] = uint8(outRow[l])
		}
	}
	return out
}

// Profile runs the exact model over all images and simulations, collecting
// the joint operand PMF of every operation node (paper §2.2 / Figure 3).
// The returned slice follows Graph.OpNodes order and is normalized.
func (app *ImageApp) Profile(images []*imagedata.Image) []*pmf.PMF {
	ops := app.Graph.OpNodes()
	pmfs := make([]*pmf.PMF, len(ops))
	for i, id := range ops {
		w := app.Graph.Nodes[id].Op.Width
		pmfs[i] = pmf.New(w, w)
	}
	gp := compileGraph(app.Graph)
	vals := make([]uint64, gp.numVals())
	gp.setConsts(vals)
	trace := func(opIdx int, a, b uint64) {
		pmfs[opIdx].Add(a, b, 1)
	}
	for _, sim := range app.Sims {
		for _, im := range images {
			total := im.W * im.H
			for base := 0; base < total; base += gprogLanes {
				lanes := total - base
				if lanes > gprogLanes {
					lanes = gprogLanes
				}
				app.fillLanes(gp, vals, im, sim, base, lanes)
				gp.evalLanes(vals, lanes, trace)
			}
		}
	}
	for _, p := range pmfs {
		p.Normalize()
	}
	return pmfs
}

// Result holds the precise evaluation of one configuration: QoR by
// simulation plus hardware cost by synthesis — the quantities the paper's
// final Pareto front is built from.
type Result struct {
	SSIM   float64
	Area   float64 // µm²
	Delay  float64 // ns
	Power  float64 // µW
	Energy float64 // fJ per output pixel
	Gates  int
}

// evalShared is the Evaluator state that is immutable once NewEvaluator
// returns: the compiled exact-model graph program, the exact reference
// outputs and the block-packed input bit-planes.  Every Clone of an
// Evaluator shares one evalShared, which is what makes clones cheap and
// concurrent evaluation safe — nothing here is ever written after
// construction (the compiled programs are read-only by design).
type evalShared struct {
	gp        *gprog               // compiled exact model (read-only)
	exact     [][]*imagedata.Image // [sim][image]
	planes    [][][]uint64         // [image][block][tapBitPlane×words]
	laneCount [][]int              // [image][block], ≤ netlist.BlockWords×64
	simPlanes [][]uint64           // [sim][extraBitPlane×words] broadcast

	headBits int // number of tap bit-planes

	progs *programStore // program directory and compile counters
}

// Evaluator performs precise (simulation + synthesis) evaluation of
// configurations for one app over a fixed benchmark image set.  Exact
// reference outputs and packed input bit-planes are computed once and
// reused across configurations.
//
// One Evaluator is not safe for concurrent use (it owns mutable scratch
// buffers), but Clone returns independent evaluators sharing the expensive
// precomputed state, so N clones may Evaluate concurrently.
type Evaluator struct {
	App    *ImageApp
	Images []*imagedata.Image

	shared *evalShared

	// Per-evaluator scratch, owned exclusively; never shared with clones.
	inBuf       []uint64                        // block-packed program inputs
	outVals     [netlist.BlockWords * 64]uint64 // unpacked output lanes
	progScratch []uint64                        // compiled-program value slots
	progOut     []uint64                        // compiled-program outputs
	ones        []uint64                        // per-gate activity counts
	outImgs     []*imagedata.Image              // approximate output per image

	// Metric scores an approximate output image against the exact
	// reference (higher = better).  Defaults to SSIM, the paper's QoR;
	// ssim.PSNR is the drop-in alternative the paper mentions.  A custom
	// Metric must be safe for concurrent use when clones evaluate in
	// parallel (pure functions like SSIM and PSNR are), and must not
	// retain approx: the evaluator reuses that image for the next output.
	Metric func(exact, approx *imagedata.Image) float64
}

// Clone returns an independent evaluator for concurrent use: it shares the
// immutable app, images and precomputed state (exact references, packed
// bit-planes) with the original but owns its own scratch buffers.  Clones
// inherit the Metric setting at clone time.
func (e *Evaluator) Clone() *Evaluator {
	c := *e // shares c.shared; copies outVals (an array) and Metric
	c.inBuf = make([]uint64, len(e.inBuf))
	c.progScratch = nil // grown per configuration inside Evaluate
	c.progOut = nil
	c.ones = nil
	c.outImgs = make([]*imagedata.Image, len(e.outImgs))
	for i, im := range e.outImgs {
		c.outImgs[i] = imagedata.New(im.W, im.H)
	}
	return &c
}

// activityBatches bounds the 64-lane words used for switching-activity
// estimation when computing power/energy.  Evaluate counts whole
// EvalBlock passes, so it is a multiple of netlist.BlockWords: the first
// simulation's first image's first two blocks (fewer when that image is
// smaller).
const activityBatches = 16

// NewEvaluator validates the app and precomputes exact references and
// packed inputs.
func NewEvaluator(app *ImageApp, images []*imagedata.Image) (*Evaluator, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if len(images) == 0 {
		return nil, fmt.Errorf("accel: evaluator needs at least one image")
	}
	for _, im := range images {
		if im.W < ssim.WindowSize || im.H < ssim.WindowSize {
			return nil, fmt.Errorf("accel: image %dx%d smaller than the SSIM window", im.W, im.H)
		}
	}
	const W = netlist.BlockWords
	sh := &evalShared{
		gp:       compileGraph(app.Graph),
		headBits: 8 * len(app.Taps),
		progs:    &programStore{},
	}
	e := &Evaluator{App: app, Images: images, shared: sh, Metric: ssim.SSIM}

	// Exact references, through the shared compiled graph program.
	gvals := make([]uint64, sh.gp.numVals())
	sh.exact = make([][]*imagedata.Image, len(app.Sims))
	for si, sim := range app.Sims {
		sh.exact[si] = make([]*imagedata.Image, len(images))
		for ii, im := range images {
			sh.exact[si][ii] = app.exactOutput(sh.gp, gvals, im, sim)
		}
	}

	// Window bit-planes per image, W×64 pixels per block, row-major, in
	// the block layout Program.EvalBlock consumes.
	vals := make([]uint64, W*64)
	sh.planes = make([][][]uint64, len(images))
	sh.laneCount = make([][]int, len(images))
	e.outImgs = make([]*imagedata.Image, len(images))
	for ii, im := range images {
		e.outImgs[ii] = imagedata.New(im.W, im.H)
		total := im.W * im.H
		nb := (total + W*64 - 1) / (W * 64)
		sh.planes[ii] = make([][]uint64, nb)
		sh.laneCount[ii] = make([]int, nb)
		for b := 0; b < nb; b++ {
			base := b * W * 64
			lanes := total - base
			if lanes > W*64 {
				lanes = W * 64
			}
			plane := make([]uint64, sh.headBits*W)
			for t, tap := range app.Taps {
				for l := 0; l < lanes; l++ {
					p := base + l
					vals[l] = uint64(im.AtClamped(p%im.W+tap.DX, p/im.W+tap.DY))
				}
				netlist.PackBitsBlock(vals[:lanes], 8, W, plane[8*t*W:(8*t+8)*W])
			}
			sh.planes[ii][b] = plane
			sh.laneCount[ii][b] = lanes
		}
	}

	// Broadcast planes for the extra (per-simulation) inputs: each bit
	// repeats across the W block words.
	extraIDs := app.Graph.Inputs[len(app.Taps):]
	sh.simPlanes = make([][]uint64, len(app.Sims))
	for si, sim := range app.Sims {
		var plane []uint64
		for xi, id := range extraIDs {
			w := app.Graph.Nodes[id].Width
			for k := 0; k < w; k++ {
				word := uint64(0)
				if sim[xi]>>uint(k)&1 != 0 {
					word = ^uint64(0)
				}
				for j := 0; j < W; j++ {
					plane = append(plane, word)
				}
			}
		}
		sh.simPlanes[si] = plane
	}
	totalIn := sh.headBits*W + len(sh.simPlanes[0])
	e.inBuf = make([]uint64, totalIn)
	return e, nil
}

// NewEvaluatorWithCache is NewEvaluator over a program directory:
// simplified netlists are also written to dir, and a fresh evaluator
// (e.g. after a server restart) over the same circuits decodes and
// compiles them instead of re-running Flatten+Simplify.  A nil dir
// synthesizes every configuration, like NewEvaluator.
func NewEvaluatorWithCache(app *ImageApp, images []*imagedata.Image, dir *ProgramDir) (*Evaluator, error) {
	e, err := NewEvaluator(app, images)
	if err != nil {
		return nil, err
	}
	e.shared.progs.disk = dir
	return e, nil
}

// Precompile compiles cfg, or loads it from the program directory,
// without evaluating it: with a directory it warms the directory.
func (e *Evaluator) Precompile(cfg Configuration) error {
	_, _, err := e.compiled(cfg)
	return err
}

// Synthesize flattens and simplifies cfg's netlist: the accelerator-level
// synthesis step.  It always synthesizes fresh; Evaluate first tries the
// program directory, when there is one.
func (e *Evaluator) Synthesize(cfg Configuration) (*netlist.Netlist, error) {
	flat, err := Flatten(e.App.Graph, cfg)
	if err != nil {
		return nil, err
	}
	return netlist.Simplify(flat), nil
}

// ProgramCacheStats snapshots the counters shared with the clones.
func (e *Evaluator) ProgramCacheStats() ProgramCacheStats {
	ps := e.shared.progs
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.st
}

// compiled returns cfg's simplified netlist and its compiled program.
// The netlist is loaded from the program directory when it holds it, and
// synthesized (and queued for the directory) otherwise; either way the
// program is compiled from it.  Structurally identical circuits share one
// directory entry, even under different names.
func (e *Evaluator) compiled(cfg Configuration) (*netlist.Netlist, *netlist.Program, error) {
	// Check first: keying indexes every circuit of the tuple.
	if err := CheckConfiguration(e.App.Graph, cfg); err != nil {
		return nil, nil, err
	}
	ps := e.shared.progs
	var key string
	if ps.disk != nil {
		key = ps.configKey(cfg)
		simp, ok, healed := ps.disk.load(key)
		if healed {
			ps.count(&ps.st.SelfHeals, progDiskSelfHeals)
		}
		if ok {
			ps.count(&ps.st.Hits, progHits)
			return simp, netlist.Compile(simp), nil
		}
	}
	ps.count(&ps.st.Misses, progMisses)
	span := obs.Default().StartSpanIn(progCompile)
	simp, err := e.Synthesize(cfg)
	if err != nil {
		span.Finish()
		return nil, nil, err
	}
	prog := netlist.Compile(simp)
	span.Finish()
	if ps.disk != nil {
		ps.disk.store(key, simp)
	}
	return simp, prog, nil
}

// Evaluate performs the full precise analysis of one configuration:
// synthesis for hardware cost, then block-packed simulation of the
// compiled program over every (simulation, image) pair for QoR —
// netlist.BlockWords×64 pixels per instruction-decode pass.  Power and
// energy come from the gate values of the first simulation's first
// image's leading passes, activityBatches words in all: each is counted
// from the evaluator's scratch right after the pass that produced it.
func (e *Evaluator) Evaluate(cfg Configuration) (Result, error) {
	simp, prog, err := e.compiled(cfg)
	if err != nil {
		return Result{}, err
	}
	const W = netlist.BlockWords
	if n := prog.NumSlots() * W; len(e.progScratch) < n {
		e.progScratch = make([]uint64, n)
	}
	if n := prog.NumOutputs() * W; len(e.progOut) < n {
		e.progOut = make([]uint64, n)
	}
	if n := len(simp.Gates); len(e.ones) < n {
		e.ones = make([]uint64, n)
	}
	ones := e.ones[:len(simp.Gates)]
	clear(ones)

	sh := e.shared
	headWords := sh.headBits * W
	outW := prog.NumOutputs()
	var ssimTotal float64
	activityLanes := 0
	for si := range e.App.Sims {
		copy(e.inBuf[headWords:], sh.simPlanes[si])
		for ii, out := range e.outImgs {
			for b, plane := range sh.planes[ii] {
				copy(e.inBuf[:headWords], plane)
				res := prog.EvalBlock(e.inBuf, e.progScratch, e.progOut)
				lanes := sh.laneCount[ii][b]
				if si == 0 && ii == 0 && b < activityBatches/W {
					prog.CountOnes(e.progScratch, lanes, ones)
					activityLanes += lanes
				}
				netlist.UnpackBitsBlock(res, outW, W, lanes, e.outVals[:])
				base := b * W * 64
				for l := 0; l < lanes; l++ {
					out.Pix[base+l] = uint8(e.outVals[l])
				}
			}
			ssimTotal += e.Metric(sh.exact[si][ii], out)
		}
	}
	cost := simp.ActivityCost(ones, activityLanes)
	return Result{
		SSIM:   ssimTotal / float64(len(e.App.Sims)*len(e.Images)),
		Area:   cost.Area,
		Delay:  cost.Delay,
		Power:  cost.Power,
		Energy: cost.Energy,
		Gates:  cost.GateCount,
	}, nil
}
