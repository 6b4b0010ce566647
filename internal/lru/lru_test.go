package lru

import (
	"reflect"
	"testing"
)

// TestEvictionOrder: past capacity the least recently used entry goes,
// and Get refreshes recency.
func TestEvictionOrder(t *testing.T) {
	c := New[int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Add(k, i)
	}
	if _, ok := c.Get("a"); !ok { // "b" is now the least recently used
		t.Fatal("a missing")
	}
	c.Add("d", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
	}
	if got, want := c.Values(), []int{2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Values = %v, want oldest-first %v", got, want)
	}
	c.Add("c", 20) // replacement keeps the count and refreshes recency
	if v, ok := c.Get("c"); !ok || v != 20 || c.Len() != 3 {
		t.Errorf("replace: got %v,%v len %d", v, ok, c.Len())
	}
	c.Remove("c")
	c.Remove("nope")
	if _, ok := c.Get("c"); ok || c.Len() != 2 {
		t.Errorf("Remove left %d entries", c.Len())
	}
}

// TestWeightBudget: the weight bound evicts oldest-first, replacements
// and removals keep the weight in step, and a value heavier than the
// whole budget is not retained.
func TestWeightBudget(t *testing.T) {
	c := NewWeighted(10, 10, func(v int) int { return v })
	c.Add("a", 4)
	c.Add("b", 4)
	c.Add("c", 4) // 12 > 10: "a" goes
	if _, ok := c.Get("a"); ok || c.Weight() != 8 {
		t.Fatalf("weight %d after over-budget add", c.Weight())
	}
	c.Add("b", 1)
	c.Remove("c")
	if c.Weight() != 1 || c.Len() != 1 {
		t.Fatalf("weight %d len %d after replace and remove", c.Weight(), c.Len())
	}
	c.Add("huge", 11)
	if c.Len() != 0 || c.Weight() != 0 {
		t.Fatalf("over-budget value kept: len %d weight %d", c.Len(), c.Weight())
	}
}

// TestNilIsDisabled: a nil cache always misses and never panics.
func TestNilIsDisabled(t *testing.T) {
	var c *Cache[string]
	c.Add("a", "x")
	c.Remove("a")
	if _, ok := c.Get("a"); ok || c.Len() != 0 || c.Weight() != 0 || c.Values() != nil {
		t.Fatal("nil cache is not empty")
	}
}
