// Package lru is the repository's one bounded least-recently-used
// cache: the engine's result memo and compiled-plan cache, the serving
// layer's parsed-structure cache and the gateway's route cache are all
// instances of it.
//
// A Cache is bounded by its number of entries and, when it has a weigh
// function, by the total weight of its values. It is not synchronized;
// every user guards it with its own mutex. A nil *Cache is the disabled
// cache: Get always misses, Add and Remove do nothing, Len and Weight
// are 0 and Values is nil.
package lru

import "container/list"

// Cache is a bounded LRU from string keys to values of type V.
type Cache[V any] struct {
	capacity int
	order    *list.List // front = most recently used; values are *entry[V]
	entries  map[string]*list.Element
	weigh    func(V) int // nil: every entry weighs 0
	budget   int         // bound on weight
	weight   int         // total weight of the entries
}

type entry[V any] struct {
	key string
	val V
	w   int
}

// New returns a cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// NewWeighted returns a cache holding at most capacity entries whose
// weights, as weigh reports them, total at most budget.
func NewWeighted[V any](capacity, budget int, weigh func(V) int) *Cache[V] {
	c := New[V](capacity)
	c.weigh, c.budget = weigh, budget
	return c
}

// Len returns the number of entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	return c.order.Len()
}

// Weight returns the total weight of the entries.
func (c *Cache[V]) Weight() int {
	if c == nil {
		return 0
	}
	return c.weight
}

// Values returns the cached values oldest-first, without touching
// recency.
func (c *Cache[V]) Values() []V {
	if c == nil {
		return nil
	}
	out := make([]V, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*entry[V]).val)
	}
	return out
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Remove drops the entry under key, if any.
func (c *Cache[V]) Remove(key string) {
	if c == nil {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		c.weight -= el.Value.(*entry[V]).w
		delete(c.entries, key)
	}
}

// Add stores val under key as the most recently used entry, replacing
// any previous value, then evicts least recently used entries until
// both bounds hold. A value heavier than the whole budget evicts
// everything, itself included.
func (c *Cache[V]) Add(key string, val V) {
	if c == nil {
		return
	}
	w := 0
	if c.weigh != nil {
		w = c.weigh(val)
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		c.weight += w - e.w
		e.val, e.w = val, w
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry[V]{key: key, val: val, w: w})
		c.weight += w
	}
	for c.order.Len() > c.capacity || c.weight > c.budget {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*entry[V])
		c.weight -= e.w
		delete(c.entries, e.key)
	}
}
