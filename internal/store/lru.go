package store

import "container/list"

// LRU is a map ordered by last use under a cost budget: the one eviction
// policy of every bounded memo and tier in the service.  Put charges each
// entry a caller-chosen cost (bytes, or 1 to count entries) and, while
// the total is over Budget, evicts from the least-recently-used end —
// never the newest entry, so whatever was stored last stays cached.
// Budget ≤ 0 means unbounded.  OnEvict, when set, is told of each
// eviction; Remove is not an eviction.
//
// Set Budget and OnEvict before first use; the zero value is otherwise
// ready to use.  LRU is not safe for concurrent use: callers guard it with
// their own lock, under which OnEvict also runs.
type LRU[K comparable, V any] struct {
	Budget  int64
	OnEvict func(K, V)

	items map[K]*list.Element
	order list.List // of *lruItem[K, V]; front = most recently used
	cost  int64
}

type lruItem[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// Get returns key's value and promotes it to most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// Has reports whether key is present without promoting it.
func (c *LRU[K, V]) Has(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces key as the most recently used entry at the
// given cost, then evicts from the tail while the total cost is over
// Budget and more than one entry remains.
func (c *LRU[K, V]) Put(key K, val V, cost int64) {
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem[K, V])
		c.cost += cost - it.cost
		it.val, it.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		if c.items == nil {
			c.items = make(map[K]*list.Element)
		}
		c.items[key] = c.order.PushFront(&lruItem[K, V]{key, val, cost})
		c.cost += cost
	}
	for c.Budget > 0 && c.cost > c.Budget && c.order.Len() > 1 {
		it := c.unlink(c.order.Back())
		if c.OnEvict != nil {
			c.OnEvict(it.key, it.val)
		}
	}
}

// Remove deletes key if present.  It does not call OnEvict.
func (c *LRU[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.unlink(el)
	}
}

// Oldest returns the least recently used entry without promoting it.
func (c *LRU[K, V]) Oldest() (key K, val V, ok bool) {
	if el := c.order.Back(); el != nil {
		it := el.Value.(*lruItem[K, V])
		return it.key, it.val, true
	}
	return key, val, false
}

// Len returns the number of entries.
func (c *LRU[K, V]) Len() int { return c.order.Len() }

// Cost returns the total cost of the entries.
func (c *LRU[K, V]) Cost() int64 { return c.cost }

// unlink drops el from the order, the index and the cost.
func (c *LRU[K, V]) unlink(el *list.Element) *lruItem[K, V] {
	it := c.order.Remove(el).(*lruItem[K, V])
	delete(c.items, it.key)
	c.cost -= it.cost
	return it
}
