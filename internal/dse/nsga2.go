package dse

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"autoax/internal/par"
	"autoax/internal/pareto"
)

// nsga2Engine is a population engine in the NSGA-II family (fast
// non-dominated sort + crowding distance; surveyed for approximate-circuit
// DSE in AxOSyn): each generation breeds Population offspring by binary
// tournament, uniform crossover and per-operation mutation, scores the
// whole generation through per-shard Estimators, folds every scored
// point through the staircase archive, and keeps the best Population of
// parents∪offspring by (rank, crowding).
//
// Determinism contract: every genetic-operator draw comes sequentially
// from one stream derived from (engine, "evolve", seed) and the initial
// population from (engine, "init", seed), while generation scoring — the
// only parallel part — writes estimates by index (estimates are pure
// functions of the configuration).  A run is therefore bit-identical for
// a fixed (seed, budget, population) at every GOMAXPROCS.
type nsga2Engine struct{}

func (nsga2Engine) Name() string { return "nsga2" }

// nsga2CrossoverProb is the probability an offspring mixes two parents
// gene-wise instead of cloning the tournament winner.
const nsga2CrossoverProb = 0.9

func (nsga2Engine) Run(ctx context.Context, m *Models, opt SearchOptions) (*pareto.Archive[[]int], error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return &pareto.Archive[[]int]{}, err
	}
	archive := &pareto.Archive[[]int]{}
	s := m.Space
	n := len(s)
	if n == 0 {
		return archive, nil
	}
	pop := opt.Population
	if pop > opt.Evaluations {
		pop = opt.Evaluations
	}

	ests := make([]Estimator, min(runtime.GOMAXPROCS(0), pop))
	for i := range ests {
		ests[i] = m.Estimator()
	}

	initRng := rand.New(rand.NewSource(DeriveSeed("nsga2", "init", opt.Seed)))
	evoRng := rand.New(rand.NewSource(DeriveSeed("nsga2", "evolve", opt.Seed)))

	var st nsga2Stats
	defer st.flush()

	cur := newNsga2Pop(pop, n)
	off := newNsga2Pop(pop, n)
	next := newNsga2Pop(pop, n)
	sc := newNsga2Scratch(2 * pop)
	curRank := make([]int, pop)
	curCrowd := make([]float64, pop)

	for i := 0; i < pop; i++ {
		s.RandomConfigInto(initRng, cur.cfgs[i])
	}
	if err := nsga2Score(ctx, ests, cur, pop); err != nil {
		return archive, err
	}
	used := pop
	st.insertAll(archive, cur, pop)

	// Rank the initial population alone so the first tournaments have
	// (rank, crowding) to compare.
	start := time.Now()
	fronts := sc.sortFronts(cur.o0[:pop], cur.o1[:pop])
	sc.crowding(fronts, cur.o0[:pop], cur.o1[:pop])
	nsga2SortTime.ObserveDuration(time.Since(start))
	copy(curRank, sc.rank[:pop])
	copy(curCrowd, sc.crowd[:pop])

	for used < opt.Evaluations {
		st.flush()
		if opt.Progress != nil {
			opt.Progress(used, opt.Evaluations)
		}
		if err := ctx.Err(); err != nil {
			return archive, err
		}

		k := opt.Evaluations - used
		if k > pop {
			k = pop
		}
		// Breeding draws are strictly sequential on evoRng — the only
		// randomness in a generation — so the trajectory is independent
		// of how scoring is sharded.
		for i := 0; i < k; i++ {
			p1 := nsga2Tournament(evoRng, pop, curRank, curCrowd)
			p2 := nsga2Tournament(evoRng, pop, curRank, curCrowd)
			nsga2Crossover(evoRng, cur.cfgs[p1], cur.cfgs[p2], off.cfgs[i])
			nsga2Mutate(evoRng, s, off.cfgs[i])
		}
		if err := nsga2Score(ctx, ests, off, k); err != nil {
			return archive, err
		}
		used += k
		st.insertAll(archive, off, k)

		// Environmental selection over parents ∪ offspring.
		cN := pop + k
		copy(sc.o0[:pop], cur.o0[:pop])
		copy(sc.o1[:pop], cur.o1[:pop])
		copy(sc.o0[pop:cN], off.o0[:k])
		copy(sc.o1[pop:cN], off.o1[:k])
		start := time.Now()
		fronts := sc.sortFronts(sc.o0[:cN], sc.o1[:cN])
		sc.crowding(fronts, sc.o0[:cN], sc.o1[:cN])
		nsga2SortTime.ObserveDuration(time.Since(start))

		slot := 0
		for _, front := range fronts {
			if slot == pop {
				break
			}
			if rem := pop - slot; len(front) > rem {
				// Split front: highest crowding first, index ascending on
				// ties — a total, deterministic order.
				front = append(sc.frontBuf[:0], front...)
				crowd := sc.crowd
				sort.Slice(front, func(a, b int) bool {
					if crowd[front[a]] != crowd[front[b]] {
						return crowd[front[a]] > crowd[front[b]]
					}
					return front[a] < front[b]
				})
				front = front[:rem]
			}
			for _, j := range front {
				src := cur
				sj := j
				if j >= pop {
					src = off
					sj = j - pop
				}
				copy(next.cfgs[slot], src.cfgs[sj])
				next.o0[slot] = src.o0[sj]
				next.o1[slot] = src.o1[sj]
				curRank[slot] = sc.rank[j]
				curCrowd[slot] = sc.crowd[j]
				slot++
			}
		}
		cur, next = next, cur
		st.generations++
	}
	if opt.Progress != nil {
		opt.Progress(used, opt.Evaluations)
	}
	return archive, nil
}

// nsga2Pop holds one population: configurations plus their minimized
// objective vectors (o0 = −QoR, o1 = hw), parallel by index.
type nsga2Pop struct {
	cfgs   [][]int
	o0, o1 []float64
}

func newNsga2Pop(pop, n int) *nsga2Pop {
	buf := make([]int, pop*n)
	cfgs := make([][]int, pop)
	for i := range cfgs {
		cfgs[i] = buf[i*n : (i+1)*n]
	}
	return &nsga2Pop{cfgs: cfgs, o0: make([]float64, pop), o1: make([]float64, pop)}
}

// nsga2Score estimates p.cfgs[:k] into p.o0/p.o1, splitting [0, k) into
// one contiguous range per estimator (each owns its feature buffers) and
// scoring the ranges on par.Each.  Every range writes disjoint indices, so
// results are identical at any estimator count.  It returns the first
// error in range order — a panic in an estimator, or the context ending
// before a range started.
func nsga2Score(ctx context.Context, ests []Estimator, p *nsga2Pop, k int) error {
	shards := min(len(ests), k)
	return firstError(par.Each(ctx, shards, func(w int) error {
		nsga2ScoreRange(ests[w], p, k*w/shards, k*(w+1)/shards)
		return nil
	}))
}

func nsga2ScoreRange(est Estimator, p *nsga2Pop, lo, hi int) {
	for i := lo; i < hi; i++ {
		q, h := est(p.cfgs[i])
		p.o0[i], p.o1[i] = -q, h // QoR is higher-better; minimize −QoR
	}
}

// nsga2Tournament is a binary tournament on (rank asc, crowding desc),
// breaking full ties toward the first draw.
func nsga2Tournament(rng *rand.Rand, pop int, rank []int, crowd []float64) int {
	a, b := rng.Intn(pop), rng.Intn(pop)
	if rank[b] < rank[a] || (rank[b] == rank[a] && crowd[b] > crowd[a]) {
		return b
	}
	return a
}

// nsga2Crossover fills dst gene-wise from p1/p2 (uniform crossover), or
// clones p1 when the crossover coin misses.
func nsga2Crossover(rng *rand.Rand, p1, p2, dst []int) {
	if rng.Float64() >= nsga2CrossoverProb {
		copy(dst, p1)
		return
	}
	for g := range dst {
		if rng.Intn(2) == 0 {
			dst[g] = p1[g]
		} else {
			dst[g] = p2[g]
		}
	}
}

// nsga2Mutate re-draws each operation's circuit with probability 1/len(s)
// to a uniformly random *different* library member.
func nsga2Mutate(rng *rand.Rand, s Space, cfg []int) {
	pm := 1.0 / float64(len(s))
	for g := range cfg {
		if rng.Float64() < pm && len(s[g]) > 1 {
			nv := rng.Intn(len(s[g]) - 1)
			if nv >= cfg[g] {
				nv++
			}
			cfg[g] = nv
		}
	}
}

// nsga2Scratch holds the reusable buffers of non-dominated sorting and
// crowding over up to cap individuals.
type nsga2Scratch struct {
	rank     []int
	crowd    []float64
	o0, o1   []float64 // combined objective staging
	domCount []int
	dominees [][]int
	order    []int
	frontBuf []int
	fronts   [][]int
}

func newNsga2Scratch(capacity int) *nsga2Scratch {
	return &nsga2Scratch{
		rank:     make([]int, capacity),
		crowd:    make([]float64, capacity),
		o0:       make([]float64, capacity),
		o1:       make([]float64, capacity),
		domCount: make([]int, capacity),
		dominees: make([][]int, capacity),
		order:    make([]int, capacity),
		frontBuf: make([]int, capacity),
	}
}

// nsga2Dominates reports strict Pareto dominance of i over j under
// minimization of (o0, o1).
func nsga2Dominates(o0, o1 []float64, i, j int) bool {
	if o0[i] > o0[j] || o1[i] > o1[j] {
		return false
	}
	return o0[i] < o0[j] || o1[i] < o1[j]
}

// sortFronts runs the fast non-dominated sort over n = len(o0)
// individuals, filling sc.rank (0 = best front) and returning the fronts
// in rank order, each front's members in index order.
func (sc *nsga2Scratch) sortFronts(o0, o1 []float64) [][]int {
	n := len(o0)
	sc.fronts = sc.fronts[:0]
	for i := 0; i < n; i++ {
		sc.domCount[i] = 0
		sc.dominees[i] = sc.dominees[i][:0]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if nsga2Dominates(o0, o1, i, j) {
				sc.dominees[i] = append(sc.dominees[i], j)
				sc.domCount[j]++
			} else if nsga2Dominates(o0, o1, j, i) {
				sc.dominees[j] = append(sc.dominees[j], i)
				sc.domCount[i]++
			}
		}
	}
	// Peel fronts into sc.order, one contiguous run per front, each kept
	// in ascending index order (a dominee can be released out of order,
	// so every next front is re-sorted) — deterministic downstream
	// slicing depends on this canonical order.
	pos := 0
	cur := sc.order[pos:pos]
	for i := 0; i < n; i++ {
		if sc.domCount[i] == 0 {
			sc.rank[i] = 0
			cur = append(cur, i)
		}
	}
	rank := 0
	for len(cur) > 0 {
		sc.fronts = append(sc.fronts, cur)
		pos += len(cur)
		next := sc.order[pos:pos]
		for _, i := range cur {
			for _, j := range sc.dominees[i] {
				sc.domCount[j]--
				if sc.domCount[j] == 0 {
					sc.rank[j] = rank + 1
					next = append(next, j)
				}
			}
		}
		sort.Ints(next)
		cur = next
		rank++
	}
	return sc.fronts
}

// crowding fills sc.crowd with the crowding distance of every individual,
// computed per front: boundary members get +Inf, interior members the sum
// of normalized neighbor gaps per objective.  Fronts are sorted by
// (objective, index) — a total order, so distances are deterministic.
func (sc *nsga2Scratch) crowding(fronts [][]int, o0, o1 []float64) {
	for _, front := range fronts {
		for _, i := range front {
			sc.crowd[i] = 0
		}
		for _, obj := range [2][]float64{o0, o1} {
			f := append(sc.frontBuf[:0], front...)
			sort.Slice(f, func(a, b int) bool {
				if obj[f[a]] != obj[f[b]] {
					return obj[f[a]] < obj[f[b]]
				}
				return f[a] < f[b]
			})
			lo, hi := obj[f[0]], obj[f[len(f)-1]]
			inf := math.Inf(1)
			sc.crowd[f[0]] = inf
			sc.crowd[f[len(f)-1]] = inf
			if hi == lo {
				continue
			}
			for x := 1; x < len(f)-1; x++ {
				if sc.crowd[f[x]] < inf {
					sc.crowd[f[x]] += (obj[f[x+1]] - obj[f[x-1]]) / (hi - lo)
				}
			}
		}
	}
}

// insertAll folds p's first k scored individuals through the archive in
// index order, accumulating insert/eviction stats; payloads are copied
// only when the archive accepts the point.
func (st *nsga2Stats) insertAll(archive *pareto.Archive[[]int], p *nsga2Pop, k int) {
	for i := 0; i < k; i++ {
		if pt := (pareto.Point{p.o0[i], p.o1[i]}); !archive.Covered(pt) {
			before := archive.Len()
			archive.Insert(pt, append([]int(nil), p.cfgs[i]...))
			st.inserts++
			st.evictions += int64(before + 1 - archive.Len())
		}
	}
}
