package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refEntry is one entry of the reference model.
type refEntry struct {
	key, val int
	cost     int64
}

// refLRU is the reference model of LRU: a slice ordered most recently
// used first, evicting by the rule as written — from the tail while the
// total is over a positive budget and more than one entry remains.
type refLRU struct {
	budget  int64
	entries []refEntry
	evicted []int
}

func (r *refLRU) index(key int) int {
	return slices.IndexFunc(r.entries, func(e refEntry) bool { return e.key == key })
}

func (r *refLRU) cost() int64 {
	var sum int64
	for _, e := range r.entries {
		sum += e.cost
	}
	return sum
}

func (r *refLRU) get(key int) (int, bool) {
	i := r.index(key)
	if i < 0 {
		return 0, false
	}
	e := r.entries[i]
	r.entries = slices.Insert(slices.Delete(r.entries, i, i+1), 0, e)
	return e.val, true
}

func (r *refLRU) put(key, val int, cost int64) {
	if i := r.index(key); i >= 0 {
		r.entries = slices.Delete(r.entries, i, i+1)
	}
	r.entries = slices.Insert(r.entries, 0, refEntry{key, val, cost})
	for r.budget > 0 && r.cost() > r.budget && len(r.entries) > 1 {
		r.evicted = append(r.evicted, r.entries[len(r.entries)-1].key)
		r.entries = r.entries[:len(r.entries)-1]
	}
}

func (r *refLRU) remove(key int) bool {
	i := r.index(key)
	if i >= 0 {
		r.entries = slices.Delete(r.entries, i, i+1)
	}
	return i >= 0
}

// lruEntries lists c's entries most recently used first.
func lruEntries(c *LRU[int, int]) []refEntry {
	var out []refEntry
	for el := c.order.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem[int, int])
		out = append(out, refEntry{it.key, it.val, it.cost})
	}
	return out
}

// TestLRUOracle runs seeded, generated operation sequences against LRU
// and the reference model side by side, comparing order, values, Len,
// Cost and the keys OnEvict reported after every operation.  Budgets
// cover unbounded (≤ 0), 1 and small; costs cover 0, normal and above
// the budget; re-Puts change the cost.  The test fails if the generator
// misses a case.
func TestLRUOracle(t *testing.T) {
	const seeds, ops, keys = 300, 200, 8
	var seen struct{ zeroCost, oversize, rePut, evict, remove, getHit, oldest, nilHook int }
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budgets := []int64{0, -1, 1, 2 + rng.Int63n(12)}
		budget := budgets[rng.Intn(len(budgets))]
		ref := &refLRU{budget: budget}
		c := &LRU[int, int]{Budget: budget}
		var evicted []int
		withHook := seed%5 != 0 // every fifth sequence runs without a hook
		if withHook {
			c.OnEvict = func(k, v int) {
				if i := slices.IndexFunc(lruEntries(c), func(e refEntry) bool { return e.key == k }); i >= 0 {
					t.Fatalf("seed %d: OnEvict(%d) while the key is still present", seed, k)
				}
				evicted = append(evicted, k)
			}
		} else {
			seen.nilHook++
		}
		for op := 0; op < ops; op++ {
			key := rng.Intn(keys)
			var desc string
			switch r := rng.Intn(10); {
			case r < 5:
				var cost int64
				switch rng.Intn(4) {
				case 0:
					seen.zeroCost++
				case 1:
					cost = max(budget, 1) + 1 + rng.Int63n(3)
					if budget > 0 {
						seen.oversize++
					}
				default:
					cost = 1 + rng.Int63n(4)
				}
				if i := ref.index(key); i >= 0 && ref.entries[i].cost != cost {
					seen.rePut++
				}
				val := rng.Int()
				before := len(ref.evicted)
				c.Put(key, val, cost)
				ref.put(key, val, cost)
				if len(ref.evicted) > before {
					seen.evict++
				}
				desc = fmt.Sprintf("Put(%d, %d, %d)", key, val, cost)
			case r < 8:
				got, gok := c.Get(key)
				want, wok := ref.get(key)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), want (%d, %v)", seed, op, key, got, gok, want, wok)
				}
				if wok {
					seen.getHit++
				}
				desc = fmt.Sprintf("Get(%d)", key)
			case r < 9:
				c.Remove(key)
				if ref.remove(key) {
					seen.remove++
				}
				desc = fmt.Sprintf("Remove(%d)", key)
			default:
				k, v, ok := c.Oldest()
				var want refEntry
				if n := len(ref.entries); n > 0 {
					want = ref.entries[n-1]
					seen.oldest++
				}
				if ok != (len(ref.entries) > 0) || k != want.key || v != want.val {
					t.Fatalf("seed %d op %d: Oldest() = (%d, %d, %v), want (%d, %d)", seed, op, k, v, ok, want.key, want.val)
				}
				desc = "Oldest()"
			}
			if got := lruEntries(c); !slices.Equal(got, ref.entries) {
				t.Fatalf("seed %d op %d %s: entries %v, want %v", seed, op, desc, got, ref.entries)
			}
			if c.Len() != len(ref.entries) || c.Cost() != ref.cost() || len(c.items) != len(ref.entries) {
				t.Fatalf("seed %d op %d %s: Len %d Cost %d index %d, want %d and %d",
					seed, op, desc, c.Len(), c.Cost(), len(c.items), len(ref.entries), ref.cost())
			}
			if withHook && !slices.Equal(evicted, ref.evicted) {
				t.Fatalf("seed %d op %d %s: OnEvict saw %v, want %v", seed, op, desc, evicted, ref.evicted)
			}
		}
	}
	t.Logf("cases seen: %+v", seen)
	if seen.zeroCost == 0 || seen.oversize == 0 || seen.rePut == 0 || seen.evict == 0 ||
		seen.remove == 0 || seen.getHit == 0 || seen.oldest == 0 || seen.nilHook == 0 {
		t.Fatalf("generator missed a case: %+v", seen)
	}
}

// TestLRUHasDoesNotPromote: Has reports presence without a use, so the
// oldest entry stays oldest and is the next one evicted.
func TestLRUHasDoesNotPromote(t *testing.T) {
	var evicted []int
	c := LRU[int, int]{Budget: 3, OnEvict: func(k, _ int) { evicted = append(evicted, k) }}
	for k := 1; k <= 3; k++ {
		c.Put(k, 10*k, 1)
	}
	if !c.Has(1) || c.Has(4) {
		t.Fatalf("Has(1)=%v Has(4)=%v, want true, false", c.Has(1), c.Has(4))
	}
	if k, v, ok := c.Oldest(); !ok || k != 1 || v != 10 {
		t.Fatalf("Oldest after Has = %d, %d, %v; want 1, 10, true", k, v, ok)
	}
	c.Put(4, 40, 1)
	if !slices.Equal(evicted, []int{1}) || c.Has(1) {
		t.Fatalf("evicted %v, Has(1)=%v; want [1], false", evicted, c.Has(1))
	}
}
