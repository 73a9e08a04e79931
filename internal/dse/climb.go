package dse

import (
	"context"
	"math/bits"
	"math/rand"

	"autoax/internal/ml"
	"autoax/internal/pareto"
)

// scorer is one model as the estimators and the incremental hill climb
// call it: Reset scores a configuration from scratch and makes it the
// current point, Move scores the current point with operation k
// re-assigned to circuit c, Accept makes that the current point and
// Reject drops it.  ml.TableScorer implements it for forests: a Move
// costs one AND per tree that tests operation k, against rest masks it
// builds once per (current point, k), and a Reject restores nothing but
// the row and the score.
type scorer interface {
	Reset(cfg []int) float64
	Move(k, c int) float64
	Accept()
	Reject()
}

// fullPredictor adapts a non-forest regressor to the scorer seam: it
// re-scores its own copy of the configuration through Predict on every
// call.
type fullPredictor struct {
	r        ml.Regressor
	features func(cfg []int, dst []float64) []float64
	x        []float64
	cfg      []int
	k, old   int // the pending move
}

func (p *fullPredictor) Reset(cfg []int) float64 {
	p.cfg = append(p.cfg[:0], cfg...)
	return p.r.Predict(p.features(p.cfg, p.x))
}

func (p *fullPredictor) Move(k, c int) float64 {
	p.k, p.old = k, p.cfg[k]
	p.cfg[k] = c
	return p.r.Predict(p.features(p.cfg, p.x))
}

func (p *fullPredictor) Accept() {}
func (p *fullPredictor) Reject() { p.cfg[p.k] = p.old }

// hillClimb runs Algorithm 1 — stochastic hill climbing whose accept test
// is insertion into the Pareto archive, with random restarts after
// opt.Stagnation consecutive rejections — and is the body of the
// "hillclimb" engine.  The context is checked every
// ctxCheckStride estimator evaluations.
//
// It takes the same rng draws, makes the same estimates and builds the
// same archive as a plain loop calling m.Estimator() on every neighbour
// (the frozen refHillClimb oracle), but avoids that loop's per-iteration
// costs: the one-operation neighbour move re-assigns the parent in place
// (undoing it on reject), forest-backed models score through
// ml.TableScorer (the parent's rest masks for the moved operation are
// ANDed with the new circuit's masks, one AND per tree, and reused by
// every later move of that operation from the same parent; a reject
// restores only the row and the score), the candidate configuration is
// materialized only when the archive accepts it, and no per-iteration
// allocations are performed outside archive growth.
func (m *Models) hillClimb(ctx context.Context, opt SearchOptions) (*pareto.Archive[[]int], error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return &pareto.Archive[[]int]{}, err
	}
	s := m.Space
	rng := rand.New(rand.NewSource(opt.Seed))
	archive := &pareto.Archive[[]int]{}

	qp, hp := m.scorers()

	var st climbStats
	defer st.flush()

	parent := s.RandomConfig(rng)
	archive.Insert(point(qp.Reset(parent), hp.Reset(parent)), append([]int(nil), parent...))
	st.inserts++
	stagnant, restarts := 0, 0
	var orderBuf []int

	// Candidate memo.  Estimates are deterministic in the configuration,
	// and Covered is monotone — an insert only evicts points the new one
	// dominates, so an archived cover of p can only ever be replaced by a
	// stronger cover — which means every candidate the climb has already
	// evaluated (accepted or rejected) is certain to be rejected if it is
	// ever drawn again.  The repeat can therefore skip prediction and
	// archive probe entirely with no observable difference from a plain
	// estimator loop.
	//
	// When the whole configuration packs into 64 bits the memo is a
	// global set keyed by the packed candidate (O(1) incremental packing
	// per move).  Otherwise it degrades to a per-parent (op, circuit)
	// table stamped by epoch: the parent is fixed within an epoch, so
	// (op, circuit) identifies the candidate.
	packShift, packable := packPlan(s)
	var seen map[uint64]struct{}
	var packParent uint64
	maxLib := 0
	for _, lib := range s {
		if len(lib) > maxLib {
			maxLib = len(lib)
		}
	}
	var seenEpoch []uint64
	if packable {
		seen = make(map[uint64]struct{}, 1024)
		packParent = packConfig(parent, packShift)
		seen[packParent] = struct{}{} // the initial insert was evaluated
	} else {
		seenEpoch = make([]uint64, len(s)*maxLib)
	}
	epoch := uint64(1)
	for evals := 1; evals < opt.Evaluations; evals++ {
		if evals%ctxCheckStride == 0 {
			st.flush()
			if opt.Progress != nil {
				opt.Progress(evals, opt.Evaluations)
			}
			if err := ctx.Err(); err != nil {
				return archive, err
			}
		}
		st.iters++
		// The neighbor move is applied to parent in place.
		k, nv, moved := s.neighborMove(parent, rng)
		accepted := false
		if moved {
			st.proposals++
			repeat := false
			var packCand uint64
			var idx int
			if packable {
				// Modular arithmetic keeps the incremental pack exact:
				// the field update never overflows its bit allocation.
				packCand = packParent + uint64(int64(nv-parent[k]))<<packShift[k]
				_, repeat = seen[packCand]
			} else {
				idx = k*maxLib + nv
				repeat = seenEpoch[idx] == epoch
			}
			if !repeat {
				old := parent[k]
				parent[k] = nv
				q := qp.Move(k, nv)
				h := hp.Move(k, nv)
				if packable {
					// Evaluated once means certainly rejected forever
					// after: accepted points sit in the archive (or were
					// evicted by a dominator), rejected points stay
					// covered by monotonicity.
					seen[packCand] = struct{}{}
				}
				if pt := point(q, h); !archive.Covered(pt) {
					before := archive.Len()
					archive.Insert(pt, append([]int(nil), parent...))
					st.inserts++
					st.evictions += int64(before + 1 - archive.Len())
					qp.Accept()
					hp.Accept()
					packParent = packCand
					epoch++
					accepted = true
				} else { // rejected: memoize and undo the move
					if !packable {
						seenEpoch[idx] = epoch
					}
					qp.Reject()
					hp.Reject()
					parent[k] = old
				}
			} else {
				// Memo hit: a repeat of an already-evaluated candidate —
				// certain rejection, nothing to recompute.
				st.memoHits++
			}
		} else {
			// No operation can move: the candidate equals the parent, and
			// inserting the already-archived point again would be a
			// certain rejection.
		}
		if accepted {
			stagnant = 0
			continue
		}
		stagnant++
		if stagnant >= opt.Stagnation {
			// The paper restarts from a random archived configuration.
			// When the archive is small and every member's 1-step
			// neighbourhood is dominated (a trap low-fidelity models can
			// create), that loops forever — so odd restarts draw an
			// archived member by insertion order (the order the
			// pre-staircase archive stored members in, keeping
			// trajectories reproducible across archive layouts) and even
			// restarts a fresh random configuration.
			restarts++
			st.restarts++
			if restarts%2 == 1 {
				orderBuf = archive.InsertionOrder(orderBuf)
				pick := orderBuf[rng.Intn(len(orderBuf))]
				copy(parent, archive.Payloads()[pick])
			} else {
				s.RandomConfigInto(rng, parent)
			}
			qp.Reset(parent)
			hp.Reset(parent)
			if packable {
				packParent = packConfig(parent, packShift)
			}
			epoch++ // new parent: the per-parent memo no longer applies
			stagnant = 0
		}
	}
	if opt.Progress != nil {
		opt.Progress(opt.Evaluations, opt.Evaluations)
	}
	return archive, nil
}

// packPlan assigns each operation a bit field wide enough for its library
// and reports whether the whole configuration fits in 64 bits.  shift[i]
// is operation i's field offset.
func packPlan(s Space) (shift []int, ok bool) {
	shift = make([]int, len(s))
	total := 0
	for i, lib := range s {
		shift[i] = total
		total += bits.Len(uint(len(lib) - 1))
		if total > 64 {
			return nil, false
		}
	}
	return shift, true
}

// packConfig packs cfg into its 64-bit key under the given field plan.
func packConfig(cfg []int, shift []int) uint64 {
	var p uint64
	for i, v := range cfg {
		p |= uint64(v) << shift[i]
	}
	return p
}
