package graph

// ForEachHomomorphism enumerates every homomorphism from query to
// instance, invoking fn with each (the slice is reused; copy it to keep
// it). Enumeration stops early when fn returns false. The count of
// homomorphisms can be exponential; this is used by the match-enumeration
// fallback solver and by tests.
func ForEachHomomorphism(query, instance *Graph, fn func(Homomorphism) bool) {
	if query.n == 0 {
		fn(Homomorphism{})
		return
	}
	if instance.n == 0 {
		return
	}
	order := searchOrder(query)
	h := make(Homomorphism, query.n)
	for i := range h {
		h[i] = -1
	}
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == len(order) {
			return fn(h)
		}
		v := order[pos]
		for _, cand := range candidates(query, instance, v, h) {
			if consistent(query, instance, v, cand, h) {
				h[v] = cand
				if !rec(pos + 1) {
					h[v] = -1
					return false
				}
				h[v] = -1
			}
		}
		return true
	}
	rec(0)
}
